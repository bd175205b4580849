"""zitterlab benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload march --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it builds nothing and
runs the package from ./src.  Each command of a workload runs as a
fresh `python -m zitterlab.cli` process, one at a time (a closed loop
with one client), so import cost and the report's lru caches start
cold as they do for a user.  An untimed warm-up import writes the
bytecode caches (each command is a fresh process, so there is no other
state to warm); then whole passes run until --seconds have elapsed.
Every command's outputs go through its oracle in workloads.py, and a
sha256 of each output is recorded without gating on it.

--trace 0 prints the end-to-end metrics (medians over passes):
  wall_s       wall time of one pass through the workload's commands
  cpu_s        user + system CPU of those child processes
  peak_rss_mb  largest per-command peak resident memory in a pass
  setup_s      wall time of a fresh `python -c "import zitterlab.cli"`
The failed share (commands whose output fails its oracle, over
commands attempted) is printed with them and is the `failed` /
`attempted` pair of the result line.

The three times are calibrated.  A shared 2-core VM changes speed by
up to half from one minute to the next, which moves raw times more
than any bound worth having.  So a fixed loop (600k Python
multiply-adds and a numpy sort of 400k floats, ~45 ms) is timed
between children, while none runs, and each child's wall and CPU time
are scaled by CALIBRATION_NOMINAL_S over the mean of the loop times
just before and just after it: seconds on a machine where the loop
takes CALIBRATION_NOMINAL_S.  No program change can move the loop.
Raw times are printed and kept in the run record too.

--trace 1 prints the per-layer metrics instead: the import breakdown
from `python -X importtime`, in-process timings of each layer's
public functions (probe.py layers), in-process `cli.main` time of all
twelve workload commands, and, for this workload's commands, a traced
pass whose spans are set against the untraced wall time.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it, prefixed
`perfbench-record `, holds the full run record that compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 165.0        # every run must exit within 180 s
CALIBRATION_NOMINAL_S = 0.045   # loop time on the 2-core Xeon VM
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


class Runner:
    """Runs children with a fixed environment inside one work dir."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.sort_input = np.random.default_rng(0).random(400_000)
        self.last_calibration = self.calibrate()
        self.env = dict(os.environ)
        self.env.pop("ZITTERLAB_CONSTANTS", None)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
        })

    def calibrate(self) -> float:
        """Time a fixed loop: how fast the machine runs right now."""
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i
        np.sort(self.sort_input)
        return time.perf_counter() - start

    def spawn(self, argv: list[str], tag: str) -> dict:
        """Run one child to completion; wall, CPU and peak RSS are its own.

        os.wait4 returns the rusage of exactly this child, unlike
        RUSAGE_CHILDREN, which is a high-water mark over all children.
        `scale` turns the child's raw times into calibrated ones, from
        the calibration loops run just before and just after it.
        """
        before = self.last_calibration
        stdout, stderr = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=so, stderr=se)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_calibration = self.calibrate()
        calibration = 0.5 * (before + self.last_calibration)
        return {"rc": proc.returncode, "wall_s": wall,
                "calibration_s": calibration,
                "scale": CALIBRATION_NOMINAL_S / calibration,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def cli_argv(cmd: workloads.Command) -> list[str]:
    return [sys.executable, "-m", "zitterlab.cli", *cmd.args]


def probe_argv(mode: str, result: Path, *rest: str) -> list[str]:
    return [sys.executable, str(HERE / "probe.py"), mode, str(result), *rest]


def judge(runner: Runner, cmd: workloads.Command, run: dict) -> dict:
    """Apply the command's oracle and hash its output."""
    outcome = workloads.Outcome(
        rc=run["rc"], stdout=run["stdout"], stderr=run["stderr"],
        out=runner.work / cmd.out if cmd.out else None)
    try:
        failure = cmd.check(outcome)
        digest = hashlib.sha256(outcome.output.read_bytes()).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failure, digest = f"{type(exc).__name__}: {exc}", None
    return {"rc": run["rc"], "wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
            "scale": run["scale"], "calibration_s": run["calibration_s"],
            "rss_mb": run["rss_mb"],
            "failure": failure, "sha256": digest}


def run_pass(runner: Runner, cmds) -> dict[str, dict]:
    return {c.name: judge(runner, c, runner.spawn(cli_argv(c), c.name))
            for c in cmds}


def setup_samples(runner: Runner, n: int) -> list[dict]:
    argv = [sys.executable, "-c", "import zitterlab.cli"]
    return [runner.spawn(argv, "setup") for _ in range(n)]


def import_breakdown(runner: Runner) -> dict[str, float]:
    """Median self time by package from `python -X importtime`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import zitterlab.cli"]
    pat = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        run = runner.spawn(argv, "importtime")
        sums = dict.fromkeys(("total", "numpy", "scipy", "zitterlab"), 0.0)
        for self_us, _, name in pat.findall(run["stderr"].read_text()):
            top = name.split(".")[0]
            sums["total"] += int(self_us) * 1e-6
            if top in sums:
                sums[top] += int(self_us) * 1e-6
        for key, value in sums.items():
            samples.setdefault(f"import.{key}_s", []).append(value)
    return {k: median(v) for k, v in samples.items()}


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit}


# --- untraced run -----------------------------------------------------

def untraced(runner: Runner, workload: str, seed: int, seconds: float):
    cmds = workloads.commands(workload, seed)
    setup_samples(runner, 1)                        # warm-up, untimed
    setup = setup_samples(runner, SETUP_SAMPLES)
    passes = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds
                         and not runner.out_of_time()):
        passes.append(run_pass(runner, cmds))
    samples = {
        "wall_s": [sum(c["wall_s"] * c["scale"] for c in p.values()) for p in passes],
        "cpu_s": [sum(c["cpu_s"] * c["scale"] for c in p.values()) for p in passes],
        "peak_rss_mb": [max(c["rss_mb"] for c in p.values()) for p in passes],
        "setup_s": [r["wall_s"] * r["scale"] for r in setup],
        "raw_wall_s": [sum(c["wall_s"] for c in p.values()) for p in passes],
        "raw_cpu_s": [sum(c["cpu_s"] for c in p.values()) for p in passes],
        "raw_setup_s": [r["wall_s"] for r in setup],
        "calibration_s": [c["calibration_s"] for p in passes for c in p.values()],
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": median(samples[k]), "unit": u, "n": len(samples[k])}
               for k, u in units.items()}
    results = [(name, res) for p in passes for name, res in p.items()]
    return metrics, samples, results


# --- traced run -------------------------------------------------------

def self_times(spans_path: Path) -> dict[str, float]:
    """Per-layer self time: span duration minus its child spans."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    child = {}
    for sid, parent, _, _, start, end in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for sid, _, layer, _, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
    return out


def traced(runner: Runner, workload: str, seed: int):
    setup_samples(runner, 1)                        # warm-up, untimed
    every = [c for w in workloads.WORKLOADS for c in workloads.commands(w, seed)]
    mine = {c.name for c in workloads.commands(workload, seed)}
    results, metrics, info = [], {}, {}

    def probed(cmd, spans: Path | None):
        result = runner.work / f"{cmd.name}.probe.json"
        extra = ("--spans", str(spans)) if spans else ()
        run = runner.spawn(probe_argv("cli", result, *extra, "--", *cmd.args),
                           cmd.name)
        judged = judge(runner, cmd, run)
        results.append((cmd.name, judged))
        if not result.is_file():    # the child died; its oracle failed
            return judged, {"main_s": run["wall_s"], "march_s": 0.0}
        return judged, json.loads(result.read_text())

    plain = {}
    for cmd in every:                               # untraced, in process
        judged, probe = probed(cmd, None)
        plain[cmd.name] = (judged, probe)
        metrics[f"cli.{cmd.name}_s"] = probe["main_s"]
    emitting = ("simulate_filtered", "simulate_exact", "simulate_rest_kick")
    metrics["cli.emit_s"] = sum(plain[n][1]["main_s"] - plain[n][1]["march_s"]
                                for n in emitting)
    metrics["cli.bytes_out"] = sum(
        (runner.work / (c.out or f"{c.name}.stdout")).stat().st_size
        for c in every)

    setup = median(r["wall_s"] for r in setup_samples(runner, IMPORT_SAMPLES))
    info["setup_s"] = setup
    accounting = {}
    for cmd in every:
        if cmd.name not in mine:
            continue
        spans = runner.work / f"{cmd.name}.spans.jsonl"
        judged, _ = probed(cmd, spans)
        layers = self_times(spans)
        layers.pop("import", None)
        untraced_wall = plain[cmd.name][0]["wall_s"]
        accounting[cmd.name] = {
            "untraced_wall_s": untraced_wall, "setup_s": setup,
            "layers_self_s": layers,
            "remainder_s": untraced_wall - setup - sum(layers.values()),
            "traced_wall_s": judged["wall_s"],
            "overhead_s": judged["wall_s"] - untraced_wall,
        }
    metrics["trace.overhead_s"] = sum(a["overhead_s"] for a in accounting.values())
    metrics["trace.remainder_s"] = sum(a["remainder_s"] for a in accounting.values())
    info["accounting"] = accounting

    metrics.update(import_breakdown(runner))
    layer_result = runner.work / "layers.json"
    run = runner.spawn(probe_argv("layers", layer_result), "layers")
    if run["rc"] != 0:
        raise RuntimeError("layer probe failed: "
                           + run["stderr"].read_text()[-2000:])
    metrics.update(json.loads(layer_result.read_text()))
    return metrics, results, info


# --- output -----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "zitterlab" / "cli.py").is_file():
        print(f"perfbench: no zitterlab sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    try:
        if args.trace:
            values, results, info = traced(runner, args.workload, args.seed)
            specs = bench["per_layer"]
            metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                       for s in specs}
        else:
            metrics, samples, results = untraced(
                runner, args.workload, args.seed, args.seconds)
            info = {"samples": samples}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(results)
    failures = [(name, r["failure"]) for name, r in results if r["failure"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(),
        "inputs": {c.name: c.args for c in workloads.commands(args.workload, args.seed)},
        "metrics": metrics, "attempted": attempted, "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "outputs": {name: r["sha256"] for name, r in results},
        **info,
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={record['provenance']['commit'][:12]}")
    print(f"  {'command (raw times)':<22}{'rc':>3}{'wall_s':>10}{'cpu_s':>10}"
          f"{'rss_mb':>9}  sha256")
    seen = {}
    for name, r in results:
        seen.setdefault(name, []).append(r)
    for name, rs in seen.items():
        print(f"  {name:<22}{rs[-1]['rc']:>3}"
              f"{median(r['wall_s'] for r in rs):>10.4f}"
              f"{median(r['cpu_s'] for r in rs):>10.4f}"
              f"{max(r['rss_mb'] for r in rs):>9.1f}  "
              f"{(rs[-1]['sha256'] or '-')[:16]}  n={len(rs)}")
    for name, failure in failures:
        print(f"  FAILED {name}: {failure}")
    for name, acc in info.get("accounting", {}).items():
        layers = " ".join(f"{k}={v:.4f}" for k, v in
                          sorted(acc["layers_self_s"].items(), key=lambda kv: -kv[1]))
        print(f"  trace {name}: untraced {acc['untraced_wall_s']:.4f} s = "
              f"setup {acc['setup_s']:.4f} + layers {sum(acc['layers_self_s'].values()):.4f} "
              f"({layers}) + remainder {acc['remainder_s']:.4f}; "
              f"traced {acc['traced_wall_s']:.4f} s, overhead {acc['overhead_s']:.4f} s")
    for name, m in metrics.items():
        n = f"  n={m['n']}" if "n" in m else ""
        raw = info.get("samples", {}).get(f"raw_{name}")
        raw = f"  (raw {median(raw):.6g} s)" if raw else ""
        print(f"  {name:<44}{m['value']:>16.6g} {m['unit']}{n}{raw}")
    print(f"  {'failed_share':<44}{record['failed_share']:>16.6g} 1"
          f"  ({len(failures)} of {attempted} commands)")
    print("perfbench-record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
