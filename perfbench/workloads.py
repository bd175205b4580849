"""Workload definitions and correctness oracles for the benchmark.

A workload is a list of `zitterlab` CLI invocations.  The seed picks
only input parameters (drift speeds and the render window), never the
amount of work: row counts depend on --tend and --dt alone, and the
drift range keeps the seeded history at its fixed 3-unit span.

Every command carries an oracle that reads the command's exit code and
outputs and returns None when they are right, else the reason they are
wrong.  The oracles test physics and format facts that do not depend
on the seed (exit codes, row counts, x = B t, residual bounds, the
1.7932821329... real root, U = gamma + Q), never output hashes.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REAL_ROOT = 1.79328213290076
ROOT_RESIDUAL_MAX = 1e-10
UNIFORM_TOL = 1e-12        # report's uniform_invariance tolerance
RESIDUAL_MAX = 1e-10       # EOM defect bound inside the light cone
GROWTH_RTOL = 0.15         # report's drift_growth_rate tolerance
REST_KICK_T = 9.676
RENDER_SIZE = (1600, 1200)
HISTORY_SPAN = 3.0         # seeded history length for |B| <= 0.55
DT = 1e-3
DRIFT_RANGE = (0.1, 0.5)
WORKLOADS = ("reproduce", "march", "explore")


@dataclass(frozen=True)
class Outcome:
    """What one finished command left behind."""

    rc: int
    stdout: Path
    stderr: Path
    out: Path | None

    @property
    def output(self) -> Path:
        """The command's primary output: its --out file, else stdout."""
        return self.out if self.out is not None else self.stdout


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]          # arguments after `zitterlab`
    out: str | None                # --out file name in the work dir
    check: Callable[[Outcome], str | None]


def gamma(beta: float) -> float:
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def _load_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _json_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


# --- oracles ---------------------------------------------------------

def _series_verify(o: Outcome) -> str | None:
    lines = o.stdout.read_text().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if o.rc != 0 or passed != 12 or len(lines) != 12:
        return f"rc {o.rc}, {passed} PASS of {len(lines)} lines (want 12/12)"
    return None


def _report_full(o: Outcome) -> str | None:
    recs = _json_lines(o.output)
    failing = [r["check_id"] for r in recs if not r["pass"]]
    if o.rc != 1 or len(recs) != 26 or failing != ["long_run_bounded"]:
        return f"rc {o.rc}, {len(recs)} records, failing {failing}"
    return None


def _report_only(o: Outcome) -> str | None:
    recs = _json_lines(o.output)
    if o.rc != 0 or not recs or not all(r["pass"] for r in recs):
        return f"rc {o.rc}, {len(recs)} records, not all passing"
    return None


def _uniform_csv(beta: float, tend: float) -> Callable[[Outcome], str | None]:
    rows_expected = round((tend + HISTORY_SPAN) / DT) + 1

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"rc {o.rc}"
        t, x, b, bd, res = _load_csv(o.output, "t,x,beta,beta_dot,residual").T
        if t.size != rows_expected:
            return f"{t.size} rows, expected {rows_expected}"
        drift = max(float(np.max(np.abs(x - beta * t))),
                    float(np.max(np.abs(b - beta))),
                    float(np.max(np.abs(bd))))
        if not drift <= UNIFORM_TOL:
            return f"uniform motion off by {drift:.3g}"
        reach = (t - t[0]) - np.sqrt((x - x[0]) ** 2 + 1.0)
        inside = (t - 1.0 >= t[0]) & (reach > 1e-3)
        if not inside.any() or not np.all(np.isfinite(res[inside])):
            return "non-finite residual inside the light cone"
        worst = float(np.max(np.abs(res[inside])))
        if not worst <= RESIDUAL_MAX:
            return f"residual {worst:.3g} inside the light cone"
        return None
    return check


def _rest_kick(o: Outcome) -> str | None:
    err = o.stderr.read_text()
    m = re.search(r"stopped early at t = ([0-9.eE+-]+)", err)
    if o.rc != 1 or "SuperluminalError" not in err or m is None:
        return f"rc {o.rc}, stderr {err.strip()[:120]!r}"
    t_reached = float(m.group(1))
    t = _load_csv(o.output, "t,x,beta,beta_dot,residual")[:, 0]
    if abs(t_reached - REST_KICK_T) > 0.01 or abs(t[-1] - REST_KICK_T) > 0.01:
        return f"stopped at t = {t_reached} (csv ends {t[-1]}), expected ~{REST_KICK_T}"
    return None


def _mode_kick(beta: float) -> Callable[[Outcome], str | None]:
    target = REAL_ROOT / gamma(beta)

    def check(o: Outcome) -> str | None:
        recs = {r["record"]: r for r in _json_lines(o.output)}
        rate = recs.get("growth_rate", {})
        value, tgt = rate.get("value"), rate.get("target")
        if o.rc != 0 or value is None or tgt is None:
            return f"rc {o.rc}, growth_rate record {rate}"
        if abs(tgt - target) > 1e-9 * target:
            return f"target {tgt}, expected {target}"
        if abs(value - target) > GROWTH_RTOL * target:
            return f"growth rate {value} outside {GROWTH_RTOL} of {target}"
        return None
    return check


def _roots(beta: float, count: int | None) -> Callable[[Outcome], str | None]:
    # the comoving root, or its lab-frame image should --beta ever rescale it
    wanted = (REAL_ROOT, REAL_ROOT / gamma(beta))

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"rc {o.rc}"
        re_, im, res = _load_csv(o.output, "re,im,residual").T
        if not np.all(res <= ROOT_RESIDUAL_MAX):
            return f"root residual {float(np.max(res)):.3g}"
        if count is not None and re_.size != count:
            return f"{re_.size} roots, expected {count}"
        real = re_[np.abs(im) <= 1e-12]
        if not any(np.any(np.abs(real - w) <= 1e-12) for w in wanted):
            return "real root 1.79328213290076 missing"
        return None
    return check


def _render(o: Outcome) -> str | None:
    w, h = RENDER_SIZE
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with open(o.output, "rb") as fh:
        head = fh.read(len(header))
    size = o.output.stat().st_size
    if o.rc != 0 or head != header or size != len(header) + 3 * w * h:
        return f"rc {o.rc}, header {head!r}, {size} bytes"
    return None


def _potential_state(beta: float) -> Callable[[Outcome], str | None]:
    def check(o: Outcome) -> str | None:
        (rec,) = _json_lines(o.output)
        gap = abs(rec["U"] - (rec["gamma"] + rec["Q"]))
        if o.rc != 0 or not gap <= 1e-12 or len(rec["partial_sums"]) != 5:
            return f"rc {o.rc}, |U - (gamma + Q)| = {gap:.3g}"
        if abs(rec["gamma"] - gamma(beta)) > 1e-15:
            return f"gamma {rec['gamma']}, expected {gamma(beta)}"
        return None
    return check


def _duffing(o: Outcome) -> str | None:
    if o.rc != 0:
        return f"rc {o.rc}"
    x, qc, force = _load_csv(o.output, "x,Qc,force").T
    worst = max(float(np.max(np.abs(qc - (-0.5 * x * x + 0.375 * x ** 4)))),
                float(np.max(np.abs(force - (x - 1.5 * x ** 3)))))
    if x.size != 301 or not worst <= 1e-12:
        return f"{x.size} rows, profile off by {worst:.3g}"
    return None


# --- workloads -------------------------------------------------------

def _drift(rng: random.Random) -> str:
    return f"{rng.uniform(*DRIFT_RANGE):.6f}"


def reproduce_commands() -> list[Command]:
    return [
        Command("series_verify", ("series-verify",), None, _series_verify),
        Command("report", ("report",), None, _report_full),
    ]


def march_commands(seed: int) -> list[Command]:
    rng = random.Random(f"march:{seed}")
    b, b2 = _drift(rng), _drift(rng)
    return [
        Command("simulate_filtered",
                ("simulate", "--seed", "uniform", "--beta", b, "--tend", "100",
                 "--out", "filtered.csv"), "filtered.csv",
                _uniform_csv(float(b), 100.0)),
        Command("simulate_exact",
                ("simulate", "--seed", "uniform", "--beta", b,
                 "--integrator", "exact", "--tend", "50", "--out", "exact.csv"),
                "exact.csv", _uniform_csv(float(b), 50.0)),
        Command("simulate_rest_kick",
                ("simulate", "--tend", "100", "--out", "rest_kick.csv"),
                "rest_kick.csv", _rest_kick),
        Command("simulate_mode_kick",
                ("simulate", "--seed", "mode_kick", "--beta", b2,
                 "--integrator", "exact", "--tend", "1.3", "--report"),
                None, _mode_kick(float(b2))),
    ]


def explore_commands(seed: int) -> list[Command]:
    rng = random.Random(f"explore:{seed}")
    b3 = _drift(rng)
    x0, x1 = -1.0 - rng.uniform(0.0, 1.0), 3.0 + rng.uniform(0.0, 1.0)
    half = rng.uniform(10.0, 20.0)
    window = f"{x0:.4f},{x1:.4f},{-half:.4f},{half:.4f}"
    w, h = RENDER_SIZE
    return [
        Command("roots_wide",
                ("roots", "--region", "-10,10,-100,100", "--grid", "4"),
                None, _roots(0.0, 32)),
        Command("roots_drift", ("roots", "--beta", b3), None,
                _roots(float(b3), None)),
        Command("render",
                ("render", "--region", window, "--size", f"{w}x{h}",
                 "--out", "render.ppm"), "render.ppm", _render),
        Command("potential_state",
                ("potential", "--beta", "0.3", "--betadot", "0.2",
                 "--series", "5"), None, _potential_state(0.3)),
        Command("potential_duffing", ("potential", "--duffing"), None,
                _duffing),
        Command("report_branch_ladder",
                ("report", "--only", "branch_ladder"), None, _report_only),
    ]


def commands(workload: str, seed: int) -> list[Command]:
    if workload == "reproduce":
        return reproduce_commands()
    if workload == "march":
        return march_commands(seed)
    if workload == "explore":
        return explore_commands(seed)
    raise ValueError(f"unknown workload {workload!r}")

