import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zitterlab
from zitterlab import cli
from zitterlab import potential as potmod
from zitterlab.cli import main
from zitterlab.dynamics import propagate_filtered
from zitterlab.report import _fmt
from zitterlab.roots import CharEq, Region, find_roots
from zitterlab.trajectory import SeedHistory


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_roots_csv_two_rows(capsys):
    code, out, err = _run(capsys, "roots", "--beta", "0",
                          "--region", "-1,3,-1,1", "--grid", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 3
    values = sorted(float(l.split(",")[0]) for l in lines[1:])
    assert abs(values[0]) < 1e-8
    assert values[1] == pytest.approx(1.7932821329, abs=1e-9)


def test_roots_out_file(tmp_path, capsys):
    path = tmp_path / "roots.csv"
    code, out, _ = _run(capsys, "roots", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("re,im,residual\n")


def test_usage_errors_exit_two(capsys):
    for argv in (["roots", "--region", "garbage"],
                 ["roots", "--beta", "1.5"],
                 ["render", "--size", "0x9", "--out", "x.ppm"],
                 ["potential", "--range", "2,1", "--duffing"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_report_only_no_match_exits_two(capsys):
    code, _, err = _run(capsys, "report", "--only", "nonexistent_check")
    assert code == 2
    assert "no check matches" in err


def test_report_single_check(capsys):
    code, out, _ = _run(capsys, "report", "--only", "electron_radius")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["check_id"] == "electron_radius"
    assert rec["pass"] is True
    assert rec["measured"] == pytest.approx(3.52e-16, rel=5e-3)


def test_report_honest_failure_bubbles_into_exit_code(capsys):
    # the long-horizon bounded-run check fails by design and must keep
    # failing in the open rather than being filtered out
    code, out, _ = _run(capsys, "report", "--only", "long_run_bounded")
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["pass"] is False
    assert rec["measured"] < rec["expected"]


def test_series_verify_all_pass(capsys):
    code, out, _ = _run(capsys, "series-verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 10
    assert all(l.startswith("PASS ") for l in lines)


def test_potential_json(capsys):
    code, out, _ = _run(capsys, "potential", "--beta", "0.3",
                        "--betadot", "0.2", "--series", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["unit"] == "m_e c^2"
    assert rec["U"] == pytest.approx(rec["gamma"] + rec["Q"], abs=1e-12)
    assert len(rec["partial_sums"]) == 4


def test_potential_si_scaling(capsys):
    _, plain, _ = _run(capsys, "potential", "--beta", "0.2")
    _, si, _ = _run(capsys, "potential", "--beta", "0.2", "--si")
    a, b = json.loads(plain), json.loads(si)
    assert b["unit"] == "J"
    assert b["U"] / a["U"] == pytest.approx(8.187105776823886e-14,
                                            rel=1e-10)


def test_potential_duffing_csv(capsys):
    code, out, _ = _run(capsys, "potential", "--duffing",
                        "--range", "-1,1", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,Qc,force"
    assert len(lines) == 6
    row = dict(zip(("x", "Qc", "force"),
                   (float(v) for v in lines[1].split(","))))
    assert row["x"] == -1.0
    assert row["Qc"] == pytest.approx(-0.125)
    assert row["force"] == pytest.approx(0.5)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_potential_duffing_overflow_prints_null(capsys):
    code, out, _ = _run(capsys, "potential", "--duffing",
                        "--range", "-1e100,1e100", "--samples", "3")
    assert code == 0
    assert out == ("x,Qc,force\n"
                   "-1e+100,null,1.5000000000000001e+300\n"
                   "0,0,0\n"
                   "1e+100,null,-1.5000000000000001e+300\n")


def _assert_same_text(got, want):
    # reports the first differing line: pytest's own diff of two texts
    # this long takes minutes
    if got != want:
        a, b = got.splitlines(True), want.splitlines(True)
        i = next((k for k, (u, v) in enumerate(zip(a, b)) if u != v),
                 min(len(a), len(b)))
        pytest.fail(f"line {i}: {a[i:i + 1]!r} != {b[i:i + 1]!r} "
                    f"({len(a)} vs {len(b)} lines)")


def _rowwise_csv(header, rows):
    # the reference: one _fmt per value, one line per row
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def test_duffing_csv_matches_rowwise_fmt(capsys):
    code, out, _ = _run(capsys, "potential", "--duffing",
                        "--range", "-3,2", "--samples", "9001")
    assert code == 0
    _assert_same_text(out, _rowwise_csv("x,Qc,force", (
        (float(x), potmod.duffing_potential(float(x)),
         potmod.duffing_force(float(x)))
        for x in np.linspace(-3.0, 2.0, 9001))))


def test_roots_csv_matches_rowwise_fmt(capsys):
    code, out, _ = _run(capsys, "roots", "--region", "-10,10,-30,30",
                        "--grid", "4")
    assert code == 0
    rs = find_roots(CharEq(0.0), Region(-10.0, 10.0, -30.0, 30.0),
                    grid_density=4.0)
    rows = sorted(rs.roots, key=lambda r: (r.value.real, r.value.imag))
    assert len(rows) > 2
    _assert_same_text(out, _rowwise_csv("re,im,residual", (
        (r.value.real, r.value.imag, r.residual) for r in rows)))


def _rowwise_trajectory_csv(traj, res):
    # the reference: one f-string of five _fmt calls per row
    lines = ["t,x,beta,beta_dot,residual"]
    for i in range(traj.t.size):
        lines.append(f"{_fmt(traj.t[i])},{_fmt(traj.x[i])},"
                     f"{_fmt(traj.beta[i])},{_fmt(traj.beta_dot[i])},"
                     f"{_fmt(float(res[i])) if math.isfinite(res[i]) else 'nan'}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def uniform_run():
    traj = propagate_filtered(SeedHistory.uniform_motion(0.4), 10.0,
                              partial=True)
    assert traj.t.size > 2 * cli._CSV_BLOCK
    return traj


def test_trajectory_csv_matches_rowwise_fmt(uniform_run):
    res = cli._residual_column(uniform_run)
    assert np.isnan(res[0]) and np.isfinite(res[-1])
    _assert_same_text(cli._trajectory_csv(uniform_run),
                      _rowwise_trajectory_csv(uniform_run, res))


def test_trajectory_csv_special_residuals(uniform_run, monkeypatch):
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
               -1e308, 0.1, -2.5e-300]
    res = np.resize(np.array(special), uniform_run.t.size)
    monkeypatch.setattr(cli, "_residual_column", lambda traj: res)
    text = cli._trajectory_csv(uniform_run)
    _assert_same_text(text, _rowwise_trajectory_csv(uniform_run, res))
    cells = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:10]]
    assert cells == ["nan", "nan", "nan", "-0", "4.9406564584124654e-324",
                     "1e+308", "-1e+308", "0.10000000000000001",
                     "-2.5e-300"]


def test_simulate_exact_csv(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code, _, err = _run(capsys, "simulate", "--seed", "mode_kick",
                        "--amp", "1e-6", "--tend", "0.6",
                        "--dt", "2e-3", "--integrator", "exact",
                        "--out", str(path))
    assert code == 0 and err == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,beta,beta_dot,residual"
    first = lines[1].split(",")
    assert len(first) == 5
    assert first[4] == "nan"
    last = lines[-1].split(",")
    assert abs(float(last[4])) < 1e-8


def test_simulate_abort_writes_prefix_and_fails(tmp_path, capsys):
    path = tmp_path / "run.csv"
    code, _, err = _run(capsys, "simulate", "--tend", "12",
                        "--out", str(path))
    assert code == 1
    assert "stopped early" in err
    body = np.loadtxt(str(path), delimiter=",", skiprows=1)
    t, beta = body[:, 0], body[:, 2]
    assert t[-1] < 12.0
    assert np.max(np.abs(beta)) < 1.0


def test_simulate_report_records(capsys):
    code, out, err = _run(capsys, "simulate", "--tend", "12", "--report")
    assert code == 1            # the requested horizon is not reached
    names = []
    for line in out.strip().splitlines():
        rec = json.loads(line)
        names.append(rec["record"])
    assert names[0] == "growth_rate"
    assert "saturation_amplitude" in names
    assert any(n == "peak_frequency" for n in names)
    first = json.loads(out.strip().splitlines()[0])
    assert first["value"] == pytest.approx(first["target"], rel=1e-4)


def test_simulate_rest_kick_rejects_drift(capsys):
    code, _, err = _run(capsys, "simulate", "--seed", "rest_kick",
                        "--beta", "0.4", "--tend", "1")
    assert code == 1
    assert "drift" in err


def test_render_deterministic_ppm(tmp_path, capsys):
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    for path in (a, b):
        code, _, _ = _run(capsys, "render", "--region", "-1,3,-5,5",
                          "--size", "40x30", "--out", str(path))
        assert code == 0
    blob = a.read_bytes()
    assert blob.startswith(b"P6\n40 30\n255\n")
    assert blob == b.read_bytes()


def test_constants_file_flag(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m_electron = 9.1093837015e-31\n")
    code, out, _ = _run(capsys, "--constants", str(cfg),
                        "potential", "--si")
    assert code == 0
    assert json.loads(out)["U"] == pytest.approx(8.187105776823886e-14,
                                                 rel=1e-10)


def test_constants_file_error_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("vacuum_impedance = 377\n")
    code, _, err = _run(capsys, "--constants", str(cfg), "series-verify")
    assert code == 1
    assert "unknown key" in err


def test_constants_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nope = 1\n")
    monkeypatch.setenv("ZITTERLAB_CONSTANTS", str(cfg))
    code, _, err = _run(capsys, "series-verify")
    assert code == 1
    assert "unknown key" in err


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; a fresh interpreter imports
    # this checkout's package through an absolute source path
    src = os.path.dirname(os.path.dirname(os.path.abspath(zitterlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys, zitterlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout[:300]
