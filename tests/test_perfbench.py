"""The benchmark's probes run on the package as it stands.

perfbench/probe.py is the only caller of some package names:
find_roots(grid_density=), RootSet.seeds_*, render_domain_coloring,
the four closed-form wrappers in geometry and cli.propagate_*.  These
tests run both probes, each in a fresh process with the package's src
directory on PYTHONPATH as the benchmark's children have it, so a
change that breaks one of those names fails here.
"""

import json
import math
import os
import subprocess
import sys

import zitterlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(zitterlab.__file__)))
PROBE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "probe.py")


def _probe(cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_layer_probe_metrics(tmp_path):
    _probe(tmp_path, "layers", "layers.json")
    m = json.loads((tmp_path / "layers.json").read_text())
    assert all(math.isfinite(v) for v in m.values())
    assert m["report.checks_passed"] == 25
    assert m["series.identities_passed"] == 12
    assert m["roots.found"] == 32
    assert m["dynamics.filtered_rows"] == 103_001
    assert m["dynamics.rest_kick_t_reached"] == 9.676


def test_cli_probe_traces_a_simulate_call(tmp_path):
    _probe(tmp_path, "cli", "cli.json", "--spans", "spans.jsonl", "--",
           "simulate", "--seed", "uniform", "--beta", "0.3", "--tend", "5",
           "--out", "traj.csv")
    assert json.loads((tmp_path / "cli.json").read_text())["rc"] == 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    names = {json.loads(span)[3] for span in spans}
    assert "trajectory.Trajectory.position_cubics" in names
