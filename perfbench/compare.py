"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files or directories of saved run.py output (any
number of runs, any workloads; directories are read recursively).
Runs pair up by workload, trace flag and seed; runs without a
same-seed partner pair in the order read.  For every workload and
metric it prints each side's median and quartiles, how many pairs NEW
won, and, for end-to-end metrics, a verdict under the rule in
BENCHMARK.json's bounds:

  improved     NEW wins at least 9 in 10 pairs (ties count for neither)
               and the medians differ by more than BASE's quartile gap
  no worse     NEW's median is within the bound of BASE's
  unresolved   a side's quartile gap exceeds the bound, unless every
               NEW run beats every BASE run
  worse        NEW's median is worse than BASE's by more than the bound

Per-layer metrics have no bound; they get medians, ratio and wins only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

PREFIX = "perfbench-record "
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    runs = []
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if line.startswith(PREFIX):
                runs.append(json.loads(line[len(PREFIX):]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in new}
    out, rest_base = [], []
    for r in base:
        if r["seed"] in by_seed:
            out.append((r, by_seed.pop(r["seed"])))
        else:
            rest_base.append(r)
    return out + list(zip(rest_base, by_seed.values()))


def verdict(b_vals, n_vals, wins, npairs, lower, bound) -> str:
    bq1, bmed, bq3 = quartiles(b_vals)
    nq1, nmed, nq3 = quartiles(n_vals)
    sign = 1.0 if lower else -1.0
    if npairs and wins >= 0.9 * npairs and sign * (bmed - nmed) > bq3 - bq1:
        return "improved"
    if all(sign * (b - n) > 0 for b in b_vals for n in n_vals):
        return "no worse"
    if (bq3 - bq1) / bmed > bound or (nq3 - nq1) / nmed > bound:
        return "unresolved"
    return "no worse" if sign * (nmed - bmed) <= bound * bmed else "worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no perfbench-record lines found", file=sys.stderr)
        return 2

    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not b_runs or not n_runs:
            print(f"{workload} trace={trace}: runs on one side only, skipped")
            continue
        paired = pairs(b_runs, n_runs)
        print(f"{workload} trace={trace}: {len(b_runs)} base runs, "
              f"{len(n_runs)} new runs, {len(paired)} pairs")
        print(f"  {'metric':<42}{'base q1/med/q3':>32}{'new q1/med/q3':>32}"
              f"{'new/base':>10}{'wins':>8}  verdict")
        for name, spec in specs.items():
            b_vals = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            n_vals = [r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]]
            if not b_vals or not n_vals:
                continue
            lower = spec["better"] == "lower"
            sign = 1.0 if lower else -1.0
            scored = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                      for b, n in paired
                      if name in b["metrics"] and name in n["metrics"]]
            wins = sum(1 for b, n in scored if sign * (b - n) > 0)
            bq, nq = quartiles(b_vals), quartiles(n_vals)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            if "bound" in spec:
                v = verdict(b_vals, n_vals, wins, len(scored), lower, spec["bound"])
            else:
                v = "-"
            print(f"  {name:<42}{'/'.join(f'{x:.4g}' for x in bq):>32}"
                  f"{'/'.join(f'{x:.4g}' for x in nq):>32}{ratio:>10.4f}"
                  f"{f'{wins}/{len(scored)}':>8}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
