"""Acceptance gate: twelve numbered criteria, one verdict line each.

Each test prints `PASS criterion N: ...` or `FAIL criterion N: ...`
directly to the terminal (bypassing capture) and then asserts.  The
ninth criterion asks the long-horizon march for a bounded saturated
oscillation the model does not deliver from a rest kick; that clause
fails and is left failing on purpose, with the measured behavior in
the verdict line.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from fractions import Fraction

import zitterlab
import zitterlab.potential as pot
from zitterlab.dynamics import (
    estimate_growth_rate,
    integrate_truncated,
    perturbed_uniform_run,
    propagate_exact,
    propagate_filtered,
)
from zitterlab.geometry import (
    potential_denominator,
    retarded_l_closed,
    retarded_r_closed,
    solve_retarded_time,
    y_parameter,
)
from zitterlab.model import (
    KinematicState,
    classical_radius,
    effective_radius,
    lorentz_gamma,
    zitter_period,
)
from zitterlab.roots import (
    CharEq,
    Region,
    argument_principle_count,
    dominant_real_root,
    find_roots,
    render_domain_coloring,
    spectrum,
)
from zitterlab.series import verify_identities
from zitterlab.trajectory import SeedHistory


VERDICTS: list[str] = []


def _verdict(num: int, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    line = f"{word} criterion {num:2d}: {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_rest_instability_root():
    t0 = time.perf_counter()
    rs = find_roots(CharEq(), Region(-1.0, 3.0, -1.0, 1.0))
    elapsed = time.perf_counter() - t0
    roots = sorted(rs.roots, key=lambda r: abs(r.value))
    ok = len(roots) == 2
    lam = roots[-1].value.real if ok else float("nan")
    ok = ok and abs(roots[0].value) < 1e-8
    ok = ok and 1.78 <= lam <= 1.81
    ok = ok and abs(lam - 1.8) / 1.8 < 0.01
    ok = ok and all(r.residual < 1e-10 for r in roots)
    ok = ok and elapsed < 1.0
    _verdict(1, ok,
             f"rest census = {{0, {lam:.6f}}}, within 1% of 9/5, "
             f"residuals < 1e-10, {elapsed:.2f}s")


def test_criterion_02_right_half_plane():
    t0 = time.perf_counter()
    wide_rootset = find_roots(CharEq(),
                              Region(-10.0, 10.0, -100.0, 100.0))
    nonzero = [r for r in wide_rootset.roots if abs(r.value) > 1e-8]
    min_re = min(r.value.real for r in nonzero)
    rng = np.random.default_rng(20260814)
    matches = 0
    trials = 0
    while trials < 5:
        x0, y0 = rng.uniform(-9.0, 7.0), rng.uniform(-90.0, 70.0)
        reg = Region(x0, x0 + rng.uniform(1.5, 3.0),
                     y0, y0 + rng.uniform(8.0, 20.0))
        # keep every root comfortably off the contour
        edge = min(
            min(abs(z.real - reg.x0), abs(z.real - reg.x1),
                abs(z.imag - reg.y0), abs(z.imag - reg.y1))
            for z in (r.value for r in wide_rootset.roots))
        if edge < 0.05:
            continue
        trials += 1
        inside = sum(r.multiplicity for r in wide_rootset.roots
                     if reg.contains(r.value))
        counted = argument_principle_count(CharEq(), reg)
        matches += int(counted == inside)
    elapsed = time.perf_counter() - t0
    ok = min_re > 0.0 and matches == 5 and elapsed < 10.0
    _verdict(2, ok,
             f"{len(nonzero)} nonzero roots all have Re > 0 "
             f"(min {min_re:.3f}); contour counts match on 5/5 random "
             f"sub-rectangles, {elapsed:.2f}s")


def test_criterion_03_spectrum_ladder():
    spectra = {b: spectrum(b, count=10)
               for b in (0.0, 0.3, 0.6, 0.9)}
    base = np.asarray(spectra[0.0].etas)
    worst = max(float(np.max(np.abs(np.asarray(sp.etas) - base) / base))
                for sp in spectra.values())
    r2 = spectra[0.0].r_squared
    ok = worst < 0.01 and r2 > 0.999
    _verdict(3, ok,
             f"first 10 eta_n drift-independent (worst spread "
             f"{worst:.2e}), linear fit R^2 = {r2:.6f}")


def test_criterion_04_series_identities():
    t0 = time.perf_counter()
    results = verify_identities()
    elapsed = time.perf_counter() - t0
    bad = [cid for cid, ok, _ in results if not ok]
    ok = not bad and len(results) >= 10 and elapsed < 5.0
    _verdict(4, ok,
             f"{len(results)} exact rational identities hold "
             f"(none failing), {elapsed:.2f}s")


def test_criterion_05_q_sequence():
    frozen = (Fraction(1, 2), Fraction(3, 8), Fraction(5, 16),
              Fraction(35, 128), Fraction(63, 256))
    exact = all(pot.q_coeff(n) == frozen[n - 1] for n in range(1, 6))
    theta = np.linspace(0.0, 2.0 * np.pi, 4097)
    w = np.ones(4097)
    w[0] = w[-1] = 0.5
    worst = 0.0
    for n in range(1, 9):
        quad = float(np.sum(w * np.cos(theta) ** (2 * n))
                     / np.sum(w))
        worst = max(worst, abs(quad - float(pot.q_coeff(n))))
    ok = exact and worst < 1e-10
    _verdict(5, ok,
             f"q_1..q_5 exact, circular-mean quadrature agrees for "
             f"n <= 8 (worst {worst:.1e})")


def test_criterion_06_geometry_identities(exact_run):
    rng = np.random.default_rng(20260814)
    n = 10_000
    beta = rng.uniform(-0.95, 0.95, n)
    yv = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), n))
    gam = 1.0 / np.sqrt(1.0 - beta * beta)
    bdot = np.where(rng.random(n) < 0.5, 1.0, -1.0) * np.sqrt(yv) / gam ** 3
    worst_p = worst_d = 0.0
    for b, bd in zip(beta, bdot):
        st = KinematicState(beta=b, beta_dot=bd)
        r = retarded_r_closed(st)
        l = retarded_l_closed(st)
        g = lorentz_gamma(b)
        y = y_parameter(st)
        worst_p = max(worst_p,
                      abs(r * r - l * l - 1.0) / max(1.0, r * r))
        worst_d = max(worst_d,
                      abs((r - l * b) * g - math.sqrt(1.0 + y))
                      / math.sqrt(1.0 + y))
    # implicit vs closed-form delay on marched trajectories
    worst_t = 0.0
    for s in np.linspace(-0.4, 0.2, 7):
        st = KinematicState(beta=float(exact_run.velocity(s)),
                            beta_dot=float(exact_run.acceleration(s)))
        t_a = s + retarded_r_closed(st)
        geo = solve_retarded_time(exact_run, float(t_a))
        worst_t = max(worst_t, abs(geo.t_r - s))
    ok = worst_p < 1e-12 and worst_d < 1e-12 and worst_t < 1e-10
    _verdict(6, ok,
             f"Pythagoras and denominator identities < 1e-12 over "
             f"10^4 states (worst {worst_p:.1e}, {worst_d:.1e}); "
             f"implicit delay matches closed form to {worst_t:.1e}")


def test_criterion_07_potential_decomposition():
    rng = np.random.default_rng(20260814)
    n = 10_000
    beta = rng.uniform(-0.95, 0.95, n)
    yv = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), n))
    gam = 1.0 / np.sqrt(1.0 - beta * beta)
    bdot = np.where(rng.random(n) < 0.5, 1.0, -1.0) * np.sqrt(yv) / gam ** 3
    worst = 0.0
    for b, bd in zip(beta, bdot):
        p = pot.sample(KinematicState(beta=b, beta_dot=bd))
        worst = max(worst, abs(p.U - (p.gamma + p.Q)) / max(1.0, p.gamma))
    g = lorentz_gamma(0.3)
    st = KinematicState(beta=0.3, beta_dot=math.sqrt(0.5) / g ** 3)
    series_err = abs(pot.self_potential_partial_sums(st, 30)[-1]
                     - pot.self_potential_closed(st))
    q_rest = pot.quantum_potential(KinematicState(beta=0.55))
    u_rest = pot.self_potential_closed(KinematicState())
    ok = (worst < 1e-12 and series_err < 1e-8
          and q_rest == 0.0 and u_rest == 1.0)
    _verdict(7, ok,
             f"U = gamma + Q to {worst:.1e} over 10^4 states; 30-term "
             f"series off by {series_err:.1e} at y = 0.5; Q(bdot=0) = 0; "
             f"U(0,0) = 1")


def test_criterion_08_duffing_structure():
    lo, mid, hi = pot.duffing_stationary_points()
    worst = max(abs(pot.duffing_force(x)) for x in (lo, mid, hi))
    ok = (worst < 1e-10
          and hi == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
          and lo == -hi and mid == 0.0
          and pot.duffing_potential(1e-4) < 0.0
          and pot.duffing_potential(-1e-4) < 0.0)
    _verdict(8, ok,
             f"stationary points at 0 and +-sqrt(2/3) (forces < "
             f"{worst:.1e}); origin is a local maximum")


def test_criterion_09_rest_instability_dynamics():
    # the marches are built here, not taken from the session fixtures,
    # so the wall-clock clause times them too
    t0 = time.perf_counter()
    rate = perturbed_uniform_run(0.0, 1e-6).rate
    lam = dominant_real_root()
    rate_ok = abs(rate - lam) / lam < 0.10

    long_attempt = propagate_filtered(SeedHistory.rest_kick(1e-6), 100.0,
                                      partial=True)
    md = long_attempt.metadata
    reached = float(long_attempt.t1)
    full_run_ok = reached >= 100.0 and "aborted" not in md
    fwd = long_attempt.beta[long_attempt.t > 1.0]
    signs = np.sign(fwd[fwd != 0.0])
    flips = int(np.count_nonzero(np.diff(signs) != 0))
    bounded_osc_ok = full_run_ok and flips >= 4

    tr = integrate_truncated(KinematicState(beta_dot=1e-8), 5.0, 1e-3)
    trunc = estimate_growth_rate(tr, (1.5, 4.0)).rate
    trunc_ok = abs(trunc - 3.0) / 3.0 < 0.05
    elapsed = time.perf_counter() - t0

    ok = rate_ok and full_run_ok and bounded_osc_ok and trunc_ok \
        and elapsed < 60.0

    def mark(good: bool) -> str:
        return "ok" if good else "FAILS"

    if bounded_osc_ok:
        long_run = (f"the 100 d/c bounded run exists: the filtered march "
                    f"reaches t = {reached:.3f} with {flips} sign flips")
    elif full_run_ok:
        long_run = (f"the 100 d/c run reaches t = {reached:.3f} but shows "
                    f"only {flips} sign flips, so no saturated "
                    f"oscillation is reached")
    else:
        coast = "coasts monotonically and " if flips == 0 else ""
        long_run = (f"the 100 d/c bounded run does not exist: the "
                    f"filtered march {coast}stops at t = {reached:.3f} "
                    f"({md.get('aborted')}), {flips} sign flips, so no "
                    f"saturated oscillation is reached")
    _verdict(9, ok,
             f"exact-march rate {rate:.4f} vs root {lam:.4f} "
             f"({mark(rate_ok)}); truncated rate {trunc:.4f} = 3 +- 5% "
             f"({mark(trunc_ok)}); {long_run}; {elapsed:.2f}s")


def test_criterion_10_uniform_motion(rate_runs):
    worst_inv = 0.0
    for beta in (0.5, 0.9):
        traj = propagate_exact(SeedHistory.uniform_motion(beta), 50.0)
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(traj.beta - beta))))
    lam = dominant_real_root()
    devs = {}
    for beta in (0.5, 0.9):
        want = lam / lorentz_gamma(beta)
        devs[beta] = abs(rate_runs[beta].rate - want) / want
    ok = worst_inv < 1e-12 and all(d < 0.15 for d in devs.values())
    _verdict(10, ok,
             f"uniform runs invariant to {worst_inv:.1e} over 50 d/c; "
             f"perturbed rates match (Re mu)/gamma within "
             f"{max(devs.values()):.2%} at beta = 0.5, 0.9 "
             f"(1/gamma time dilation)")


def test_criterion_11_physical_numbers():
    r_eff = effective_radius()
    r_cl = classical_radius()
    period = zitter_period(r_cl)
    ok = (abs(r_eff - 3.52e-16) / 3.52e-16 < 0.005
          and abs(period - 1.18e-22) / 1.18e-22 < 0.01)
    _verdict(11, ok,
             f"effective radius {r_eff:.4e} m (3.52e-16 +- 0.5%); "
             f"trembling period {period:.4e} s at the classical radius "
             f"{r_cl:.4e} m (1.18e-22 +- 1%); model-radius period "
             f"{zitter_period(r_eff):.4e} s is 8x faster (both "
             f"readings reported)")


def _child_env(threads: str) -> dict[str, str]:
    """Environment for a CLI child run from an unrelated directory.

    The child must import this checkout's package wherever it runs, so
    the absolute source directory goes first on PYTHONPATH; existing
    entries are kept after it.  A relative entry inherited from the
    caller would resolve against the child's working directory.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(zitterlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env["OMP_NUM_THREADS"] = threads
    env["OPENBLAS_NUM_THREADS"] = threads
    return env


def test_criterion_12_determinism(tmp_path):
    outs = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "zitterlab.cli", "report"],
            capture_output=True, env=_child_env(threads), cwd=str(tmp_path))
        # exit 1 is the documented honest failure (long_run_bounded)
        assert proc.returncode in (0, 1), proc.stderr.decode()
        assert proc.stderr == b"", proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        assert lines and all(isinstance(json.loads(ln), dict)
                             for ln in lines)
        outs.append(proc.stdout)
    reports_equal = outs[0] == outs[1] and len(outs[0]) > 0

    images = []
    for threads in ("1", "4"):
        path = tmp_path / f"render_{threads}.ppm"
        proc = subprocess.run(
            [sys.executable, "-m", "zitterlab.cli", "render",
             "--region", "-1,3,-8,8", "--size", "80x60",
             "--out", str(path)],
            capture_output=True, env=_child_env(threads), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr == b"", proc.stderr.decode()
        images.append(path.read_bytes())
    renders_equal = images[0] == images[1]

    a = render_domain_coloring(CharEq(), Region(-1.0, 3.0, -8.0, 8.0),
                               (80, 60))
    b = render_domain_coloring(CharEq(), Region(-1.0, 3.0, -8.0, 8.0),
                               (80, 60))
    ok = reports_equal and renders_equal and np.array_equal(a, b)
    _verdict(12, ok,
             f"report byte-identical across thread counts "
             f"({len(outs[0])} bytes); renders byte-identical "
             f"({len(images[0])} bytes)")
