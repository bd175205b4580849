import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zitterlab
from zitterlab import cli
from zitterlab import potential as potmod
from zitterlab import report
from zitterlab.cli import _count_arg, _size_arg, main
from zitterlab.dynamics import (
    estimate_spectrum,
    propagate_filtered,
    sign_changes,
)
from zitterlab.model import (
    CONFIG_KEYS,
    ConstantsError,
    PhysicalConstants,
    _fmt,
    delay_closed,
    lorentz_gamma,
    parse_constants_file,
)
from zitterlab.report import REGISTRY, render_report, run_report
from zitterlab.roots import (
    CharEq,
    Region,
    dominant_real_root,
    find_roots,
    render_domain_coloring,
)
from zitterlab.trajectory import SeedHistory, Trajectory


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


@pytest.mark.parametrize("argv", [
    ["potential", "--series", "-3"],
    ["potential", "--duffing", "--samples", "-1"],
    ["potential", "--betadot", "nan"],
    ["potential", "--betadot", "inf"],
    # an infinite end, or a width past the float range
    ["potential", "--duffing", "--range", "0,inf", "--samples", "3"],
    ["potential", "--duffing", "--range", "-1e308,1e308", "--samples", "3"],
    # the Duffing profile is in rest-energy units only
    ["potential", "--duffing", "--si", "--samples", "3"],
    ["potential", "--si", "--duffing"],
], ids=" ".join)
def test_potential_bad_numbers_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err


@pytest.mark.parametrize("argv", [
    ["potential", "--series", "10001"],
    ["potential", "--duffing", "--samples", str(2 ** 24 + 1)],
    ["render", "--size", "65537x1"],
    ["render", "--size", "1x65537"],
    ["render", "--size", "8193x8193"],
], ids=" ".join)
def test_oversized_requests_exit_two(capsys, tmp_path, argv):
    # refused by the argument types, before anything is computed or
    # allocated
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_size_caps_admit_their_bounds():
    # the argument types alone: these sizes are not rendered here
    assert _size_arg("65536x1024") == (65536, 1024)
    assert _size_arg("8192x8192") == (8192, 8192)
    assert _count_arg(10_000)("10000") == 10_000
    assert _count_arg(2 ** 24)(str(2 ** 24)) == 2 ** 24


def test_potential_duffing_zero_samples_prints_header(capsys):
    assert _run(capsys, "potential", "--duffing", "--samples", "0") == \
        (0, "x,Qc,force\n", "")


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


# sha256 of the full report as the per-state sweeps, the numpy-array
# truncated RK4 and the one-time light-cone solves printed it, with the
# three growth rates measured on the seed pass alone (march to the first
# grid row at or past 0.95 gamma) of the one-tap grid march
REPORT_SHA256 = \
    "446edfe1d308fc62a37730ef00692619ea6977e2b163fea20aa5b4eedd655286"


def test_report_is_pinned():
    text = render_report(run_report())
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("only", [None, "lightcone"])
def test_report_timings_go_to_stderr_only(capsys, only):
    select = ("--only", only) if only else ()
    code, plain, err = _run(capsys, "report", *select)
    assert err == ""
    timed_code, timed, timings = _run(capsys, "report", "--timings", *select)
    assert (timed_code, timed) == (code, plain)
    ran = [json.loads(line)["check_id"] for line in plain.splitlines()]
    assert len(ran) == (len(REGISTRY) if only is None else 2)
    lines = timings.splitlines()
    assert [line.split()[:3] for line in lines] == \
        [["zitterlab:", "timing", check_id] for check_id in ran]
    assert all(float(line.split()[3]) >= 0.0 for line in lines)


def test_report_isolates_a_raising_check(monkeypatch):
    # the raising check is recorded as failed with its exception, and the
    # checks after it still run
    def boom():
        raise ZeroDivisionError("no luck")
    monkeypatch.setattr(report, "REGISTRY", (
        report.Check("first", "one", lambda: (1.0, 1.0, 0.0, True)),
        report.Check("second", "two", boom),
        report.Check("third", "three", lambda: (None, 2.0, None, True))))
    ran = []
    records = run_report(on_timing=lambda check_id, _: ran.append(check_id))
    assert ran == ["first", "second", "third"]
    assert records[1] == {
        "check_id": "second", "detail": "two [error: ZeroDivisionError: "
        "no luck]", "expected": None, "measured": None, "tolerance": None,
        "pass": False}
    assert [r["pass"] for r in records] == [True, False, True]
    assert records[2]["measured"] == 2.0


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


@pytest.mark.parametrize("span", ["-1e100,1e100", "-1e200,1e200"])
def test_potential_duffing_overflow_is_quiet(capsys, span):
    # past the float range the CSV says null; nothing reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "potential", "--duffing",
                              "--range", span, "--samples", "3")
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "0,0,0"
    assert [l.split(",")[1] for l in out.splitlines()[1::2]] == \
        ["null", "null"]
    if span == "-1e100,1e100":
        assert out == ("x,Qc,force\n"
                       "-1e+100,null,1.5000000000000001e+300\n"
                       "0,0,0\n"
                       "1e+100,null,-1.5000000000000001e+300\n")


def test_roots_grid_is_ignored(capsys):
    for region in ("-1,3,-1,1", "-10,10,-30,30"):
        code, plain, _ = _run(capsys, "roots", "--region", region)
        assert code == 0
        code, gridded, _ = _run(capsys, "roots", "--region", region,
                                "--grid", "4")
        assert code == 0 and gridded == plain


def test_roots_beta_is_ignored(capsys):
    for region in ("-1,3,-1,1", "-10,10,-30,30"):
        code, plain, _ = _run(capsys, "roots", "--region", region)
        assert code == 0
        for beta in ("0.3", "-0.9"):
            code, drifted, _ = _run(capsys, "roots", "--region", region,
                                    "--beta", beta)
            assert code == 0 and drifted == plain


def test_render_takes_no_beta(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["render", "--beta", "0", "--out", str(tmp_path / "x.ppm")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.ppm").exists()
    capsys.readouterr()


def test_roots_region_edge_through_double_root(capsys):
    # the left edge of 0,3,-1,1 runs through the double root at 0
    code, out, err = _run(capsys, "roots", "--region", "0,3,-1,1")
    assert code == 0 and err == ""
    assert out == ("re,im,residual\n0,0,0\n"
                   f"{_fmt(dominant_real_root())},0,"
                   f"{_fmt(float(CharEq().residual(dominant_real_root())))}\n")


@pytest.mark.parametrize("region, rows", [
    ("-1e-6,1e-6,-1e-6,1e-6", 1),     # micro-region around the origin
    ("-10,7,-100,100", 10),           # right edge across the ladder
    ("19,21,16400,16500", 16),        # residuals past 1e-12, up to 1.7e-12
    ("-1,3,-1,1.7e4", 2),             # 2,706 branches, none inside
])
def test_roots_region_certified(capsys, region, rows):
    code, out, err = _run(capsys, "roots", "--region", region)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + rows


def test_tall_region_prints_the_rest_census(capsys):
    assert _run(capsys, "roots", "--region", "-1,3,-1,1.7e4") == \
        _run(capsys, "roots", "--region", "-1,3,-1,1")


@pytest.mark.parametrize("argv", [
    ["roots", "--region", "-1,3,1e10,1e10000"],
    ["roots", "--region", "-1e308,1e308,0,1"],
    ["render", "--region", "-1,3,-1e999,1", "--size", "8x6"],
])
def test_non_finite_region_exits_two(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path / "x.ppm")]
                     if argv[0] == "render" else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "needs finite edges and sides" in err
    assert not (tmp_path / "x.ppm").exists()


@pytest.mark.parametrize("region", ["-1,3,-1,1e300", "-1,3,-1,9e4",
                                    "-1e307,1e307,0,1"])
def test_region_too_large_to_certify_exits_one(capsys, region):
    # the winding walk pops each of its first steps once, so a contour
    # that needs its whole budget of them can never be certified; the
    # census refuses it before enumerating a branch
    start = time.perf_counter()
    code, out, err = _run(capsys, "roots", "--region", region)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("zitterlab: region ") and len(err) < 300
    assert "too large to certify" in err and "200000" in err


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


_ENDS = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                  st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300,
                                   -1e300]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ends=st.tuples(_ENDS, _ENDS).filter(lambda e: e[0] < e[1]),
       n=st.integers(0, 2000))
@example(ends=(0.0, 5e-324), n=2000)   # the step underflows to 0
@example(ends=(0.0, 5e-324), n=2)
@example(ends=(-1e300, 1e300), n=2000)
@example(ends=(-0.0, 1.0), n=1)
@example(ends=(-1.5, 1.5), n=301)
def test_duffing_grid_is_linspace_bit_for_bit(ends, n):
    # every end pair --range admits: a < b, both and b - a finite
    a, b = ends
    x = cli._linspace_at(a, b, n)
    assert [x(i).hex() for i in range(n)] == \
        [v.hex() for v in np.linspace(a, b, n).tolist()]


def test_roots_csv_matches_rowwise_fmt(capsys):
    code, out, _ = _run(capsys, "roots", "--region", "-10,10,-30,30",
                        "--grid", "4")
    assert code == 0
    rs = find_roots(CharEq(), Region(-10.0, 10.0, -30.0, 30.0))
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
    return propagate_filtered(SeedHistory.uniform_motion(0.4), 10.0,
                              partial=True)


def _trajectory_csv(capsys, traj):
    cli._write_trajectory_csv("-", traj)
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_trajectory_csv_matches_rowwise_fmt(uniform_run, capsys, monkeypatch):
    # several row blocks and a short last one print the same bytes as a
    # single block, the residual audit's light-cone solve included
    res = cli._residuals(uniform_run, slice(None))
    assert np.isnan(res[0]) and np.isfinite(res[-1])
    want = _rowwise_trajectory_csv(uniform_run, res)
    n = uniform_run.t.size
    assert n > 2 * 4096 and n % 1000 and n % 4096 and n <= cli._CSV_BLOCK
    for block in (1000, 4096, cli._CSV_BLOCK):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        _assert_same_text(_trajectory_csv(capsys, uniform_run), want)


def test_trajectory_csv_special_residuals(uniform_run, capsys, monkeypatch):
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
               -1e308, 0.1, -2.5e-300]
    res = np.resize(np.array(special), uniform_run.t.size)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 4096)
    monkeypatch.setattr(cli, "_residuals", lambda traj, k: res[k])
    text = _trajectory_csv(capsys, uniform_run)
    _assert_same_text(text, _rowwise_trajectory_csv(uniform_run, res))
    cells = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:10]]
    assert cells == ["nan", "nan", "nan", "-0", "4.9406564584124654e-324",
                     "1e+308", "-1e+308", "0.10000000000000001",
                     "-2.5e-300"]


def _bits(pattern):
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0].item()


def _near(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# The values a block's shared formatting must print as format(v, ".17g")
# does: both zeros, NaNs with payloads and with the sign bit, both
# infinities, subnormals, and the neighbours of the "%g" switch points
_CELL_VALUES = [
    0.0, -0.0, math.nan, -math.nan, _bits(0x7FF8000000000001),
    _bits(0xFFF800000000BEEF), _bits(0x7FF0000000000001), math.inf,
    -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.0, -1.0, 0.1, 1e308,
    *_near(1e-5), *_near(-1e-5), *_near(1e-4), *_near(1e16), *_near(1e17),
    *_near(-1e17)]
_CELLS = st.one_of(st.sampled_from(_CELL_VALUES), st.floats())


def _csv_column(n):
    # mixed cells (the sampled ones repeat), a constant run, or n values
    # that are all distinct: consecutive bit patterns up from a float
    return st.one_of(
        st.lists(_CELLS, min_size=n, max_size=n),
        _CELLS.map(lambda v: [v] * n),
        st.floats(-1e300, 1e300).map(lambda a: (
            np.array([a]).view(np.int64) + np.arange(n)
        ).view(np.float64).tolist()))


@st.composite
def _csv_blocks(draw):
    n = draw(st.integers(1, 80))
    cols = draw(st.lists(_csv_column(n), min_size=1, max_size=5))
    return cols, draw(st.integers(1, n)), draw(st.sampled_from(["nan",
                                                                "null"]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(case=_csv_blocks())
@example(case=([[-0.0, 0.0] * 50, [math.nan] * 100], 100, "null"))
@example(case=([[1.0], [-math.nan]], 1, "nan"))
def test_shared_formatting_prints_each_value_alone(case):
    # the array columns of each block, one-row blocks included, print
    # the text of one format(v, ".17g") per value
    cols, block, non_finite = case
    arrays = [np.array(col, dtype=np.float64) for col in cols]
    header = ",".join(f"c{i}" for i in range(len(cols)))
    want = header + "\n" + "".join(",".join(
        format(v, ".17g") if math.isfinite(v) else non_finite for v in row)
        + "\n" for row in zip(*cols))
    out = io.StringIO()
    kept = cli._CSV_BLOCK
    cli._CSV_BLOCK = block
    try:
        with contextlib.redirect_stdout(out):
            cli._write_csv("-", header, len(cols[0]),
                           lambda k: [a[k] for a in arrays], non_finite)
    finally:
        cli._CSV_BLOCK = kept
    assert out.getvalue() == want


def test_increasing_columns_are_not_sorted(capsys, monkeypatch):
    # a column that strictly increases cannot repeat a value, so it is
    # formatted per value without np.unique: the t column always, and a
    # uniform run's x.  The 103,001-row filtered uniform CSV has seven
    # blocks of five columns, and sorts three columns of each
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(None)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    code, out, _ = _run(capsys, "simulate", "--seed", "uniform", "--beta",
                        "0.3", "--tend", "100", "--out", "-")
    assert code == 0 and out.count("\n") == 1 + 103001
    assert len(calls) == 3 * 7


# 100 rows: seven slabs of at most 16 rows
_RENDER = ["render", "--region", "-1,3,-15,15", "--size", "64x100"]


@pytest.fixture(scope="module")
def render_ppm():
    # the header, then the library's whole image
    image = render_domain_coloring(CharEq(), Region(-1.0, 3.0, -15.0, 15.0),
                                   (64, 100))
    return b"P6\n64 100\n255\n" + image.tobytes()


def _no_fork(monkeypatch):
    # every block is made and written in this process
    def fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", fork)


# The next three tests keep the names they had when a second process
# made every other block; each now checks the one process's output

def test_two_process_csv_matches_rowwise_fmt(uniform_run, tmp_path,
                                             monkeypatch):
    # 13,001 rows at blocks of at most 2,000: seven blocks of 1,858
    # rows, the last of 1,853
    _no_fork(monkeypatch)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2000)
    path = tmp_path / "run.csv"
    cli._write_trajectory_csv(str(path), uniform_run)
    res = cli._residuals(uniform_run, slice(None))
    _assert_same_text(path.read_text(),
                      _rowwise_trajectory_csv(uniform_run, res))


def test_no_fork_without_a_descriptor_or_a_second_block(
        uniform_run, tmp_path, capsys, monkeypatch):
    # seven blocks to stdout print the text of one block to a file
    _no_fork(monkeypatch)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2000)
    text = _trajectory_csv(capsys, uniform_run)
    monkeypatch.setattr(cli, "_CSV_BLOCK", uniform_run.t.size)
    path = tmp_path / "run.csv"
    cli._write_trajectory_csv(str(path), uniform_run)
    assert path.read_text() == text


def test_render_forks_for_a_file_only(render_ppm, tmp_path, capsysbinary,
                                      monkeypatch):
    # seven slabs, to a file and to stdout, give the library's image
    _no_fork(monkeypatch)
    path = tmp_path / "r.ppm"
    assert main(_RENDER + ["--out", str(path)]) == 0
    assert path.read_bytes() == render_ppm
    assert main(_RENDER + ["--out", "-"]) == 0
    assert capsysbinary.readouterr() == (render_ppm, b"")


# rows of the 13,001-row run whose residuals fail, in blocks of 1,858:
# blocks 1, 2, 5 and 6 (the last)
@pytest.mark.parametrize("row, error", [
    (2000, OverflowError), (4000, MemoryError), (10000, OSError),
    (12000, ArithmeticError)], ids=["child", "parent", "parent-late",
                                    "child-last"])
def test_failing_block_fails_as_in_one_process(tmp_path, capsys, monkeypatch,
                                               row, error):
    residuals = cli._residuals

    def failing(traj, k):
        if k.start <= row < k.stop:
            raise error(f"no residual at row {row}")
        return residuals(traj, k)
    monkeypatch.setattr(cli, "_residuals", failing)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 2000)
    path = tmp_path / "run.csv"
    code, out, err = _run(capsys, "simulate", "--seed", "uniform", "--beta",
                          "0.4", "--tend", "10", "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("zitterlab: ") and err.count("\n") == 1
    assert f"no residual at row {row}" in err
    assert path.read_text().count("\n") == 1 + row // 1858 * 1858


def _src_env(**extra):
    # the environment of a fresh interpreter that imports this
    # checkout's package through an absolute source path
    src = os.path.dirname(os.path.dirname(os.path.abspath(zitterlab.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


# 33,001 rows: three blocks of 11,001
_MULTI_BLOCK = ["simulate", "--seed", "uniform", "--beta", "0.4", "--tend",
                "30", "--out", "-"]


def _simulate_process(threads="1"):
    return subprocess.Popen(
        [sys.executable, "-m", "zitterlab.cli", *_MULTI_BLOCK],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_src_env(OPENBLAS_NUM_THREADS=threads))


def test_piped_csv_matches_the_one_process_run(capsys):
    code, want, err = _run(capsys, *_MULTI_BLOCK)
    assert (code, err) == (0, "")
    outs = {}
    for threads in ("1", "4"):
        # an OpenBLAS pool of four threads changes no byte and writes
        # nothing to stderr
        out, err = _simulate_process(threads).communicate(timeout=120)
        assert err == b""
        outs[threads] = out
    assert outs["1"] == outs["4"]
    _assert_same_text(outs["1"].decode(), want)


def _at_eof(fh):
    # whether everything written to the pipe fh has been read and no
    # process holds its write end any longer
    fd = fh.fileno()
    os.set_blocking(fd, False)
    try:
        while os.read(fd, 1 << 16):
            pass
    except BlockingIOError:
        return False
    return True


def test_closed_pipe_fails_once_and_leaves_no_child():
    proc = _simulate_process()
    assert proc.stdout.read(100).startswith(b"t,x,beta,beta_dot,residual\n")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read1()
    assert err == b"zitterlab: [Errno 32] Broken pipe\n"
    # the CLI wrote its one error line and exited: no process of its
    # own still holds the stderr pipe
    assert _at_eof(proc.stderr)
    proc.stderr.close()


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


# both integrators are one march on the grid: each refuses an end that
# is not a whole number of steps
_OFF_GRID = [("3.045", "not a whole number of grid steps", ()),
             ("1e-4", "shorter than half the grid step", ()),
             ("3.045", "not a whole number of grid steps",
              ("--integrator", "exact"))]


@pytest.mark.parametrize("tend, message, integrator", _OFF_GRID,
                         ids=["-".join((*integrator[1:], tend, message))
                              for tend, message, integrator in _OFF_GRID])
def test_simulate_refuses_off_grid_ends(tmp_path, capsys, tend, message,
                                        integrator):
    path = tmp_path / "run.csv"
    code, _, err = _run(capsys, "simulate", "--seed", "uniform_kick",
                        "--beta", "0.3", "--amp", "1e-3", "--tend", tend,
                        "--dt", "0.01", *integrator, "--out", str(path))
    assert code == 1 and message in err
    assert not path.exists()


def test_simulate_refuses_a_kernel_past_the_delay(tmp_path, capsys):
    # argparse takes any positive span; the march refuses one that would
    # need the future
    path = tmp_path / "run.csv"
    assert _run(capsys, "simulate", "--kernel-span", "0.95", "--tend", "1",
                "--out", str(path)) == (
        1, "", "zitterlab: kernel_span must sit inside the minimum delay, "
        "got 0.95\n")
    assert not path.exists()


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


def test_simulate_report_keeps_its_records_when_the_rate_run_fails(capsys):
    # a 1e-3 kick on the beta = 0.99 drift already drives the rate run's
    # seed pass past the light barrier, while the filtered run completes;
    # its records stand and the rate is null.  The seed pass hands out no
    # emitters, so the assembled output is where |beta| >= 1 shows.
    code, out, err = _run(capsys, "simulate", "--seed", "mode_kick", "--beta",
                          "0.99", "--amp", "1e-3", "--tend", "1", "--report")
    failure = ("SuperluminalError: recovered |beta| >= 1 in the assembled "
               "output")
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 1
    assert err == f"zitterlab: the growth-rate run failed: {failure}\n"
    assert [r["record"] for r in recs] == [
        "growth_rate", "saturation_amplitude", "peak_frequency"]
    assert recs[0]["value"] is None
    assert recs[0]["target"] == dominant_real_root() / lorentz_gamma(0.99)
    assert recs[0]["detail"].endswith(f" [error: {failure}]")
    assert recs[1]["detail"].endswith("run completed to t = 1")


def _alternating_run():
    # 512 samples of beta = +-1e-3, the sign flipping at each (511
    # flips): the power rises to the Nyquist bin, so the spectrum has no
    # interior maximum and estimate_spectrum no peak
    t = np.arange(512) * 0.01
    beta = 1e-3 * (-1.0) ** np.arange(512)
    traj = Trajectory(t, np.cumsum(beta) * 0.01, beta, np.zeros(512))
    assert estimate_spectrum(traj, (0.0, float(t[-1]))) == []
    return traj


def test_simulate_report_without_a_spectral_peak():
    args = SimpleNamespace(seed="uniform", amp=1e-6)
    text, failed = cli._simulate_report(args, _alternating_run(), 0.0)
    recs = [json.loads(line) for line in text.splitlines()]
    assert failed is None
    assert [r["record"] for r in recs] == [
        "growth_rate", "saturation_amplitude", "peak_frequency"]
    assert recs[2]["value"] is None
    assert recs[2]["detail"] == "the spectrum has no interior maximum"


def test_oscillation_fundamental_without_a_spectral_peak(monkeypatch):
    monkeypatch.setattr(report, "_long_run_attempt", _alternating_run)
    assert report._check_oscillation_fundamental() == (
        report._ETA_FIRST / (2.0 * math.pi), None, None, True)


def _short_oscillating_run():
    # 100 samples of beta = 1e-3 sin(10 pi t): 9 sign flips, but fewer
    # samples than a spectrum needs
    t = np.arange(100) * 0.01
    beta = 1e-3 * np.sin(10.0 * math.pi * t)
    traj = Trajectory(t, np.zeros(100), beta, np.zeros(100))
    assert sign_changes(beta) == 9
    return traj


def test_simulate_report_on_too_few_samples():
    args = SimpleNamespace(seed="uniform", amp=1e-6)
    text, failed = cli._simulate_report(args, _short_oscillating_run(), 0.0)
    rec = json.loads(text.splitlines()[2])
    assert failed is None
    assert (rec["record"], rec["value"]) == ("peak_frequency", None)
    assert rec["detail"] == ("too few samples for a spectrum: 100 samples "
                             "in window, need >= 256")


def test_oscillation_fundamental_on_too_few_samples(monkeypatch):
    monkeypatch.setattr(report, "_long_run_attempt", _short_oscillating_run)
    assert report._check_oscillation_fundamental() == (
        report._ETA_FIRST / (2.0 * math.pi), None, None, True)


def test_simulate_report_on_a_negative_drift(capsys):
    # the motion equation is mirror-symmetric under x -> -x, so the rate
    # run takes a negative drift as it takes its mirror image
    code, out, err = _run(capsys, "simulate", "--seed", "uniform", "--beta",
                          "-0.3", "--tend", "1", "--report")
    rate = json.loads(out.splitlines()[0])
    assert (code, err) == (0, "")
    assert rate["record"] == "growth_rate"
    assert rate["target"] == dominant_real_root() / lorentz_gamma(-0.3)
    assert rate["value"] == pytest.approx(rate["target"], rel=1e-5)


@pytest.mark.parametrize("argv, rows", [
    # 2.5 gamma / dt seed rows, and t_end / dt forward rows
    (["--seed", "mode_kick", "--beta", "0.999999999", "--tend", "3"],
     "55,904,701 rows, past the cap of 16,777,216: 55,901,701 for the seed "
     "span 55901.7 and 3,000 for t_end 3"),
    (["--tend", "100", "--dt", "1e-12"],
     "1.03e+14 rows, past the cap of 16,777,216: 3e+12 for the seed span 3 "
     "and 1e+14 for t_end 100")], ids=["seed-rows", "forward-rows"])
def test_simulate_refuses_a_grid_past_the_row_cap(tmp_path, capsys, argv,
                                                  rows):
    # refused before the first array is allocated
    path = tmp_path / "run.csv"
    start = time.perf_counter()
    code, out, err = _run(capsys, "simulate", *argv, "--out", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith(f"zitterlab: the output grid needs {rows}, ")
    assert err.count("\n") == 1
    assert not path.exists()


_MODE_KICK_REPORT = ("simulate", "--seed", "mode_kick", "--integrator",
                     "exact", "--tend", "1.3", "--report")


def test_simulate_report_goes_to_out_or_stdout(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, printed, _ = _run(capsys, *_MODE_KICK_REPORT)
    assert code == 0 and printed.startswith('{"record": "growth_rate"')
    assert list(tmp_path.iterdir()) == []
    path = tmp_path / "report.jsonl"
    code, out, _ = _run(capsys, *_MODE_KICK_REPORT, "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text() == printed


def test_simulate_csv_defaults_to_traj_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "simulate", "--seed", "uniform",
                        "--tend", "0.5")
    assert (code, out) == (0, "")
    assert (tmp_path / "traj.csv").read_text().startswith(
        "t,x,beta,beta_dot,residual\n")


# exit code and sha256 of the simulate CSV, residual column included, as
# the bisection-only light-cone solve printed them
_PINNED_SIMULATE = [
    (["--seed", "uniform", "--beta", "0.3", "--tend", "5"], 0,
     "3d6e876755852c374e24425f12d30a8d7d511f1a6b278b8e40a1327ce89af420"),
    (["--seed", "uniform", "--beta", "0.3", "--tend", "5",
      "--integrator", "exact"], 0,
     "3d6e876755852c374e24425f12d30a8d7d511f1a6b278b8e40a1327ce89af420"),
    (["--tend", "12"], 1,
     "9fc53f4ccda917c513a124d6dd324cf9266e1ab3ee2eca69cda5e11166fcaedf"),
    # 103,001 rows, seven row blocks, as the whole-file writer printed it
    (["--seed", "uniform", "--beta", "0.3", "--tend", "100"], 0,
     "4a0bc8fbccee273d7da9127bdf25bba83ee664afac0f0cce08953c22b4a718c6"),
]


@pytest.mark.parametrize("argv, want_code, digest", _PINNED_SIMULATE,
                         ids=[" ".join(argv) for argv, _, _ in
                              _PINNED_SIMULATE])
def test_simulate_csv_is_pinned(capsys, argv, want_code, digest):
    code, out, _ = _run(capsys, "simulate", *argv, "--out", "-")
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_render_out_dash_is_stdout(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["render", "--size", "4x3", "--out"]
    assert main(argv + ["file.ppm"]) == 0
    assert main(argv + ["-"]) == 0
    out, err = capsysbinary.readouterr()
    assert err == b""
    assert out == (tmp_path / "file.ppm").read_bytes()
    assert out.startswith(b"P6\n4 3\n255\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.ppm"]


def test_render_past_overflow_is_quiet(tmp_path, capsys):
    # |f| overflows to inf past Re ~ 709; its band is still the flat 1.0
    path = tmp_path / "x.ppm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "render", "--region", "650,760,-400,400",
                              "--size", "30x20", "--out", str(path))
    assert code == 0 and out == "" and err == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "7eac677c0ff089bf2fa0351a87d03a4abd80f3b0ae393e7c05147df362e92ba8"


@pytest.mark.parametrize("argv, message", [
    # (k + 0.5) * 1e308 overflows where the pixel centres would not
    (["render", "--region", "0,1,-1e308,0", "--size", "1x3"],
     "the pixel centres of Region(x0=0.0, x1=1.0, y0=-1e+308, y1=0.0) pass "
     "the float range"),
    # the seed row at the kick's centre has beta = 0 and beta_dot ~ 1e300
    (["simulate", "--amp", "1e300", "--tend", "0.5", "--dt", "0.5",
      "--integrator", "exact"], "seed emissions gave non-monotone arrivals"),
], ids=["render", "simulate"])
def test_overflowing_grid_or_seed_exits_one_quietly(tmp_path, capsys, argv,
                                                    message):
    path = tmp_path / "out"
    assert _run(capsys, *argv, "--out", str(path)) == \
        (1, "", f"zitterlab: {message}\n")
    assert not path.exists()


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


def test_constants_file_refuses_d_override(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("d_override = 7.0e-16\n")
    code, out, err = _run(capsys, "--constants", str(cfg), "potential")
    assert code == 1 and out == ""
    assert "unknown key 'd_override'" in err


def test_constants_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("nope = 1\n")
    monkeypatch.setenv("ZITTERLAB_CONSTANTS", str(cfg))
    code, _, err = _run(capsys, "series-verify")
    assert code == 1
    assert "unknown key" in err


def test_constants_file_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_bytes(b"c = 3e8\n\xff\n")
    assert _run(capsys, "--constants", str(cfg), "series-verify") == \
        (1, "", f"zitterlab: {cfg}: not UTF-8 text (invalid start byte)\n")


# constants files: raw bytes, or lines of a known or unknown key and a
# value that may be no number, no float or out of range
_CONSTANTS_LINES = st.one_of(
    st.binary(max_size=24),
    st.builds("{} = {}{}".format,
              st.sampled_from(CONFIG_KEYS + ("d", "")),
              st.one_of(st.floats().map(repr), st.text(max_size=8),
                        st.sampled_from(["sNaN", "-Infinity", "1e99999999999",
                                         "9.1093837015e-31"])),
              st.sampled_from(["", " # note", "\r"])).map(str.encode))
_CONSTANTS_FILES = st.lists(_CONSTANTS_LINES, max_size=6).map(b"\n".join)


@pytest.fixture(scope="module")
def constants_path(tmp_path_factory):
    return tmp_path_factory.mktemp("constants") / "c.cfg"


@settings(max_examples=300, deadline=None)
@given(blob=_CONSTANTS_FILES)
def test_parse_constants_file_accepts_or_refuses(constants_path, blob):
    constants_path.write_bytes(blob)
    try:
        assert isinstance(parse_constants_file(str(constants_path)),
                          PhysicalConstants)
    except ConstantsError:
        pass


@settings(max_examples=60, deadline=None)
@given(blob=_CONSTANTS_FILES)
def test_constants_file_exit_codes(constants_path, blob):
    # any file: exit 0 and a quiet stderr, or exit 1 and one line
    constants_path.write_bytes(blob)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--constants", str(constants_path), "series-verify"])
    err = err.getvalue()
    assert (code, err) == (0, "") or (
        code == 1 and err.startswith("zitterlab: ")
        and err.endswith("\n") and err.count("\n") == 1)


# numbers as a user may type them: finite, huge, past the float range,
# non-finite and not numbers at all
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-400, 400).map("1e{}".format),
    st.sampled_from(["0", "-0.0", "1e308", "-1.7976931348623157e308",
                     "1e999", "-1e999", "inf", "-inf", "Infinity", "nan",
                     "-nan", "", "1,2", "x"]))
_POTENTIAL_ARGV = st.one_of(
    st.builds(lambda beta, betadot, series: [
        "potential", f"--beta={beta}", f"--betadot={betadot}",
        f"--series={series}"],
        _NUMBER_TEXT, _NUMBER_TEXT, st.integers(-1, 12)),
    st.builds(lambda a, b, n: [
        "potential", "--duffing", f"--range={a},{b}", f"--samples={n}"],
        _NUMBER_TEXT, _NUMBER_TEXT, st.integers(-1, 50)))


def _exit_contract(argv):
    # any argv: exit 0, 1 with one `zitterlab:` line, or 2 with usage; an
    # exception escaping main would be a traceback.  Returns the messages
    # of the warnings main let out.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("zitterlab: ") and err.count("\n") == 1
    elif code == 2:
        assert err.startswith("usage: ") and out.getvalue() == ""
    return [str(w.message) for w in caught]


@settings(max_examples=250, deadline=None)
@given(argv=_POTENTIAL_ARGV)
def test_potential_argv_exit_codes(argv):
    # the one warning allowed is the series' own documented divergence
    # notice
    assert [m for m in _exit_contract(argv)
            if not m.startswith("series in y diverges")] == []


# rectangles from user-typed numbers, and ordered ones from the ladder
# out to the float limit
_EDGES = st.lists(st.one_of(st.floats(-1e3, 1e3),
                            st.sampled_from([-1e308, 0.0, 1e-300, 1e308])),
                  min_size=2, max_size=2, unique=True).map(sorted)
_REGION_TEXT = st.one_of(
    st.lists(st.one_of(_NUMBER_TEXT, st.floats(-60, 60).map(repr)),
             min_size=4, max_size=4).map(",".join),
    st.builds(lambda x, y: ",".join(map(repr, x + y)), _EDGES, _EDGES))


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "out")


@settings(max_examples=100, deadline=None)
@given(region=_REGION_TEXT, beta=_NUMBER_TEXT)
def test_roots_argv_exit_codes(region, beta):
    assert _exit_contract(["roots", f"--region={region}",
                           f"--beta={beta}"]) == []


@settings(max_examples=60, deadline=None)
@given(region=_REGION_TEXT,
       size=st.one_of(st.builds("{}x{}".format, st.integers(-2, 24),
                                st.integers(-2, 24)),
                      st.sampled_from(["", "8", "8x", "1e3x2", "8x6x4"])))
def test_render_argv_exit_codes(fuzz_out, region, size):
    assert _exit_contract(["render", f"--region={region}", f"--size={size}",
                           "--out", fuzz_out]) == []


# runs of up to 3,000 steps, or past the row cap, and argv from
# user-typed numbers on steps that no march can take (a typed t_end of
# 1e5 on a step of 0.01 would be a legitimate ten-million-row run)
_SIMULATE_ARGV = st.one_of(
    st.builds(
        lambda seed, beta, amp, steps, dt, integrator, report: [
            "simulate", f"--seed={seed}", f"--beta={beta!r}",
            f"--amp={amp!r}", f"--tend={steps * dt!r}", f"--dt={dt!r}",
            f"--integrator={integrator}"] + ["--report"] * report,
        st.sampled_from(["rest_kick", "uniform", "uniform_kick",
                         "mode_kick"]),
        st.floats(-0.95, 0.95),
        st.one_of(st.floats(1e-9, 1e-2), st.sampled_from([0.5, 1e300])),
        st.integers(1, 3000),
        st.sampled_from([1e-3, 2e-3, 0.01, 0.05, 0.5, 1e-12]),
        st.sampled_from(["filtered", "exact"]), st.booleans()),
    st.builds(
        lambda seed, beta, amp, tend, dt: [
            "simulate", f"--seed={seed}", f"--beta={beta}",
            f"--amp={amp}", f"--tend={tend}", f"--dt={dt}"],
        st.sampled_from(["uniform", "x"]), _NUMBER_TEXT, _NUMBER_TEXT,
        _NUMBER_TEXT, st.sampled_from(["1e-300", "0", "nan", "x"])))


@settings(max_examples=60, deadline=None)
@given(argv=_SIMULATE_ARGV)
def test_simulate_argv_exit_codes(fuzz_out, argv):
    assert _exit_contract(argv + ["--out", fuzz_out]) == []


@pytest.mark.filterwarnings("ignore:series in y diverges:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["potential", "--betadot", "1e200"],
    ["potential", "--beta", "0.9", "--betadot", "5", "--series", "120"],
], ids=" ".join)
def test_float_overflow_exits_one(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("zitterlab: OverflowError: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    # stands in for an allocation that fails; the 100-unit march at
    # dt = 1e-12 itself is refused by the row cap before it allocates
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 13.1 TiB for an array")
    monkeypatch.setattr(cli, "propagate_filtered", refuse)
    path = tmp_path / "run.csv"
    assert _run(capsys, "simulate", "--tend", "100", "--dt", "1e-12",
                "--out", str(path)) == \
        (1, "", "zitterlab: MemoryError: Unable to allocate 13.1 TiB for "
                "an array\n")
    assert not path.exists()


def _fresh_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# prints, as a JSON list, which modules of numpy, scipy and the package
# are loaded after main(argv) ran (stdout discarded), or after a bare
# `import zitterlab.cli` when argv is empty
_LOADED = """
import contextlib, io, json, sys
if len(sys.argv) > 1:
    from zitterlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
else:
    import zitterlab.cli
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("numpy", "scipy")
                        or m.startswith("zitterlab"))))
"""


def _loaded(*argv):
    return set(json.loads(_fresh_python(_LOADED, *argv)))


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency, and the bare front end needs
    # not even that
    assert _loaded() == {"zitterlab", "zitterlab.cli", "zitterlab.model"}


_BASE = {"cli", "model"}
_ROOTS = _BASE | {"roots"}
_POTENTIAL = _BASE | {"potential"}
_MARCH = _BASE | {"dynamics", "geometry", "trajectory"}


_LAYER_CASES = [
    (["series-verify"], _BASE | {"series"}),
    (["roots"], _ROOTS),
    (["roots", "--beta", "0.3"], _ROOTS),
    (["roots", "--region", "-10,10,-100,100", "--grid", "4"], _ROOTS),
    (["render", "--size", "8x6", "--out", "{tmp}"], _ROOTS),
    (["potential"], _POTENTIAL),
    (["potential", "--duffing"], _POTENTIAL),
    (["simulate", "--seed", "mode_kick", "--integrator", "exact",
      "--tend", "1.3", "--report"], _MARCH),
    (["simulate", "--seed", "uniform", "--beta", "0.3", "--tend", "100",
      "--out", "{tmp}"], _MARCH),
    (["report", "--only", "branch_ladder"], _ROOTS | {"report"}),
]


@pytest.mark.parametrize("argv, layers", _LAYER_CASES,
                         ids=[" ".join(argv) for argv, _ in _LAYER_CASES])
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    argv = [a.format(tmp=tmp_path / "out") for a in argv]
    loaded = _loaded(*argv)
    assert {m for m in loaded if m.startswith("zitterlab")} == \
        {"zitterlab"} | {f"zitterlab.{layer}" for layer in layers}
    assert not any(m.startswith("scipy") for m in loaded)
    # series-verify, both potential forms, every roots form and the
    # ladder report run without numpy; render does not
    assert ("numpy" in loaded) == (argv[0] not in ("series-verify",
                                                   "potential", "roots",
                                                   "report"))


def test_model_runs_without_numpy():
    code = """
import json, sys
from zitterlab.model import (_fmt, delay_closed, dominant_real_root,
                             lorentz_gamma)
print(json.dumps([[_fmt(v) for v in (None, True, 3, 0.1, float("nan"), "a")],
                  lorentz_gamma(0.6), dominant_real_root(),
                  delay_closed(0.6, 0.2), "numpy" in sys.modules]))
"""
    assert json.loads(_fresh_python(code)) == \
        [["null", "true", "3", "0.10000000000000001", "null", '"a"'], 1.25,
         1.7932821329007615, list(delay_closed(0.6, 0.2)), False]


def test_package_resolves_every_public_name():
    assert len(zitterlab.__all__) == 28
    for name in zitterlab.__all__:
        obj = getattr(zitterlab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from zitterlab import *", namespace)
    assert set(zitterlab.__all__) <= set(namespace)
    assert set(zitterlab.__all__) <= set(dir(zitterlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        zitterlab.no_such_name


def test_package_import_is_lazy():
    code = """
import json, sys
import zitterlab
before = sorted(m for m in sys.modules if m.startswith(("zitterlab", "numpy")))
zitterlab.verify_identities
after = sorted(m for m in sys.modules if m.startswith(("zitterlab", "numpy")))
print(json.dumps([before, after]))
"""
    assert json.loads(_fresh_python(code)) == \
        [["zitterlab"], ["zitterlab", "zitterlab.series"]]


# sha256 of the stdout of commands whose import path the lazy layers
# changed, as the eagerly importing front end printed it
_PINNED_STDOUT = [
    (["series-verify"],
     "5b067b1b6f7fdbd5159a01375ec7bed05d65a30e0e51593b7cdbe7d926fc5aa9"),
    (["potential", "--beta", "0.3", "--betadot", "0.2", "--series", "5"],
     "6c76a8f2a20dd64fe3a2129cd647dcd50b757eac3686a8c1c6fb5f8e620908b8"),
    (["potential", "--duffing"],
     "e3b57d8a6604d7ff45b5228153cc47fc58914d350f73dad9b5d6aeb80b972a5f"),
    # its residual column as CharEq's libm evaluator gives it
    (["roots", "--region", "-10,10,-100,100"],
     "41ef5f61aa5c36e25cb5750c5af0582be56002d51f975fcd40138192a14f86ad"),
    (["report", "--only", "branch_ladder"],
     "4ae4f406bb84fd9eb685d78d81f7f737a8138984bc2fcb90abf86990ca47e96b"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in _PINNED_STDOUT])
def test_command_stdout_is_pinned(capsys, argv, digest):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# runs main(argv) in an interpreter where importing numpy raises
# ImportError, and prints its exit code and the sha256 of its stdout
_WITHOUT_NUMPY = """
import contextlib, hashlib, io, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"no {name} here")

sys.meta_path.insert(0, RefuseNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    raise SystemExit("numpy was imported")
from zitterlab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


_PINNED_POTENTIAL = [c for c in _PINNED_STDOUT if c[0][0] == "potential"]


@pytest.mark.parametrize("argv, digest", _PINNED_POTENTIAL,
                         ids=[" ".join(argv) for argv, _ in _PINNED_POTENTIAL])
def test_potential_runs_with_numpy_unimportable(argv, digest):
    assert _fresh_python(_WITHOUT_NUMPY, *argv).split() == ["0", digest]


_PINNED_ROOTS = [c for c in _PINNED_STDOUT if c[0][0] in ("roots", "report")]


@pytest.mark.parametrize("argv, digest", _PINNED_ROOTS,
                         ids=[" ".join(argv) for argv, _ in _PINNED_ROOTS])
def test_roots_run_with_numpy_unimportable(argv, digest):
    assert _fresh_python(_WITHOUT_NUMPY, *argv).split() == ["0", digest]


# runs main(argv), which imports numpy, and prints OPENBLAS_NUM_THREADS
_BLAS_THREADS = """
import contextlib, io, os, sys
from zitterlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_main_defaults_to_one_blas_thread(tmp_path, preset, want):
    # one BLAS thread unless the caller's environment sets a count
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS, "render", "--size", "8x6",
         "--out", str(tmp_path / "x.ppm")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want]


def test_simulate_marches_through_cli_globals(monkeypatch, capsys):
    # cmd_simulate must look propagate_exact and propagate_filtered up
    # in cli's namespace at call time, so a rebinding there takes effect
    calls = []
    for name in ("propagate_exact", "propagate_filtered"):
        def counted(*args, _name=name, _march=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _march(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    for integrator in ("exact", "filtered"):
        code, _, _ = _run(capsys, "simulate", "--seed", "uniform",
                          "--integrator", integrator, "--tend", "0.5",
                          "--out", "-")
        assert code == 0
    assert calls == ["propagate_exact", "propagate_filtered"]


def _readme_tour_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = text.split("## Quick tour", 1)[1].split("```sh", 1)[1]
    tour = tour.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in tour.splitlines()
            if line.startswith("zitterlab ")]


def test_readme_quick_tour_parses():
    commands = _readme_tour_commands()
    assert len(commands) >= 8
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "report" and args.only is not None:
            assert any(args.only in check.check_id for check in REGISTRY), \
                f"report --only {args.only} selects no check"
