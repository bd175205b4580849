"""One-shot reproduction report over the package's headline numbers.

Every quantitative claim the library is built around gets one check:
a deterministic computation, the value it should produce, a tolerance,
and a pass flag.  Records are emitted as JSON lines in a fixed order
so repeated runs are byte-identical and diffable.  Checks that report
a new measurement rather than test a target carry a null tolerance
and always pass; checks whose target the model genuinely cannot meet
stay in the registry and fail in the open (see long_run_bounded).

Float formatting is pinned at 17 significant digits, enough to
round-trip IEEE doubles, so golden files never drift.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import model, potential, series
from . import roots as rootsmod
from .dynamics import (
    estimate_growth_rate,
    estimate_spectrum,
    integrate_truncated,
    perturbed_uniform_run,
    propagate_exact,
    propagate_filtered,
    sign_changes,
)
from .geometry import delay_closed, solve_retarded_time_many
from .model import KinematicState
from .trajectory import SeedHistory

SWEEP_SEED = 20260814
SWEEP_SIZE = 10_000

_LSTAR_COARSE = 1.8     # quadratic-truncation estimate of the slow rate
_ETA_FIRST = 8.327764   # first oscillatory branch, c/d units


def _fmt(value) -> str:
    """One JSON token: floats at 17 significant digits, rest literal."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    import json
    return json.dumps(str(value), ensure_ascii=False)


def format_record(rec: dict) -> str:
    parts = [f'"check_id": {_fmt(rec["check_id"])}',
             f'"detail": {_fmt(rec["detail"])}',
             f'"expected": {_fmt(rec["expected"])}',
             f'"measured": {_fmt(rec["measured"])}',
             f'"tolerance": {_fmt(rec["tolerance"])}',
             f'"pass": {_fmt(rec["pass"])}']
    return "{" + ", ".join(parts) + "}"


@lru_cache(maxsize=1)
def _random_states():
    """Deterministic kinematic sweep: beta to 0.95, y up to 10.  The
    arrays are shared between checks, so they are read-only."""
    gen = np.random.default_rng(SWEEP_SEED)
    beta = gen.uniform(-0.95, 0.95, SWEEP_SIZE)
    log_y = gen.uniform(math.log(1e-6), math.log(10.0), SWEEP_SIZE)
    sign = np.where(gen.uniform(size=SWEEP_SIZE) < 0.5, -1.0, 1.0)
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    beta_dot = sign * np.sqrt(np.exp(log_y)) / gamma ** 3
    beta.setflags(write=False)
    beta_dot.setflags(write=False)
    return beta, beta_dot


# --- roots -----------------------------------------------------------

@lru_cache(maxsize=1)
def _wide_rootset():
    return rootsmod.find_roots(rootsmod.CharEq(),
                               rootsmod.Region(-10.0, 10.0, -100.0, 100.0))


def _check_real_root():
    lam = rootsmod.dominant_real_root()
    tol = 0.01 * _LSTAR_COARSE
    return _LSTAR_COARSE, lam, tol, abs(lam - _LSTAR_COARSE) <= tol


def _check_real_root_residual():
    lam = rootsmod.dominant_real_root()
    res = float(rootsmod.CharEq().residual(lam))
    return 0.0, res, 1e-10, res < 1e-10


def _check_rest_census():
    rs = rootsmod.find_roots(rootsmod.CharEq(),
                             rootsmod.Region(-1.0, 3.0, -1.0, 1.0))
    got = sorted(rs.roots, key=lambda r: r.value.real)
    ok = (len(got) == 2
          and abs(got[0].value) < 1e-8 and got[0].multiplicity == 2
          and abs(got[1].value.imag) < 1e-10
          and abs(got[1].value.real - rootsmod.dominant_real_root()) < 1e-9)
    return 2, len(got), 0, bool(ok)


def _check_half_plane():
    rs = _wide_rootset()
    nonzero = [r.value.real for r in rs.roots if abs(r.value) > 1e-8]
    worst = min(nonzero)
    return 0.0, worst, 0.0, worst > 0.0


def _check_winding_match():
    rs = _wide_rootset()
    n = rootsmod.argument_principle_count(rootsmod.CharEq(), rs.region)
    return rs.total_multiplicity(), n, 0, n == rs.total_multiplicity()


def _check_ladder_drift_invariance():
    base = np.array(rootsmod.spectrum(0.0, 10).etas)
    spread = 0.0
    for beta in (0.3, 0.6, 0.9):
        etas = np.array(rootsmod.spectrum(beta, 10, audit=False).etas)
        spread = max(spread, float(np.max(np.abs(etas - base) / base)))
    return 0.0, spread, 0.01, spread <= 0.01


def _check_ladder_linearity():
    sp = rootsmod.spectrum(0.0, 10, audit=False)
    miss = 1.0 - sp.r_squared
    return 0.0, miss, 1e-3, miss <= 1e-3


# --- exact series ----------------------------------------------------

def _check_series_identities():
    results = series.verify_identities()
    failed = sum(1 for _, ok, _ in results if not ok)
    return 0, failed, 0, failed == 0


# --- potential -------------------------------------------------------

def _check_q_sequence():
    theta = np.arange(4096) * (2.0 * math.pi / 4096.0)
    worst = 0.0
    for n in range(1, 9):
        quad = float(np.mean(np.cos(theta) ** (2 * n)))
        worst = max(worst, abs(quad - float(potential.q_coeff(n))))
    return 0.0, worst, 1e-10, worst <= 1e-10


def _check_energy_decomposition():
    p = potential.decompose(*_random_states())
    worst = float(np.max(np.abs(p.U - (p.gamma + p.Q))))
    return 0.0, worst, 1e-12, worst <= 1e-12


def _check_series_vs_closed():
    gamma = model.lorentz_gamma(0.3)
    state = KinematicState(beta=0.3, beta_dot=math.sqrt(0.5) / gamma ** 3)
    diff = abs(potential.self_potential_series(state, 30)
               - potential.self_potential_closed(state))
    return 0.0, diff, 1e-8, diff < 1e-8


def _check_duffing_stationary():
    worst = max(abs(potential.duffing_force(x))
                for x in potential.duffing_stationary_points())
    return 0.0, worst, 1e-10, worst <= 1e-10


# --- light-cone geometry ---------------------------------------------

def _check_pythagoras():
    r, l = delay_closed(*_random_states())[3:5]
    worst = float(np.max(np.abs(r * r - l * l - 1.0)))
    return 0.0, worst, 1e-12, worst <= 1e-12


def _check_denominator():
    gamma, y, _, _, _, denominator = delay_closed(*_random_states())
    worst = float(np.max(np.abs(denominator * gamma - np.sqrt(1.0 + y))))
    return 0.0, worst, 1e-12, worst <= 1e-12


def _check_retarded_delay():
    worst = 0.0
    for beta in (0.0, 0.5):
        traj = propagate_exact(SeedHistory.uniform_motion(beta), 4.0)
        gamma = model.lorentz_gamma(beta)
        ts = np.linspace(1.5, 3.5, 9)
        r = ts - solve_retarded_time_many(traj, ts)
        worst = max(worst, float(np.max(np.abs(r - gamma))))
    return 0.0, worst, 1e-10, worst <= 1e-10


# --- dynamics --------------------------------------------------------

def _check_uniform_invariance():
    traj = propagate_exact(SeedHistory.uniform_motion(0.5), 50.0)
    worst = float(np.max(np.abs(traj.x - 0.5 * traj.t)))
    return 0.0, worst, 1e-12, worst <= 1e-12


def _check_rest_rate():
    target = rootsmod.dominant_real_root()
    rate = perturbed_uniform_run(0.0, 1e-6).rate
    tol = 0.10 * target
    return target, rate, tol, abs(rate - target) <= tol


def _drift_rate(beta: float):
    gamma = model.lorentz_gamma(beta)
    target = rootsmod.dominant_real_root(beta) / gamma
    rate = perturbed_uniform_run(beta, 1e-6).rate
    tol = 0.15 * target
    return target, rate, tol, abs(rate - target) <= tol


def _check_truncated_rate():
    traj = integrate_truncated(KinematicState(beta_dot=1e-8), 5.0, 1e-3)
    rate = estimate_growth_rate(traj, (1.5, 4.0)).rate
    return 3.0, rate, 0.15, abs(rate - 3.0) <= 0.15


@lru_cache(maxsize=1)
def _long_run_attempt():
    return propagate_filtered(SeedHistory.rest_kick(1e-6), 100.0,
                              partial=True)


def _check_long_run_bounded():
    traj = _long_run_attempt()
    fwd = traj.beta[traj.t >= 0.0]
    reached = float(traj.t[-1])
    bounded = "aborted" not in traj.metadata and bool(
        np.all(np.abs(fwd) < 1.0))
    oscillates = sign_changes(fwd) >= 4
    return 100.0, reached, 0.0, bool(bounded and oscillates
                                     and reached >= 100.0)


def _check_saturation_amplitude():
    traj = _long_run_attempt()
    peak = float(np.max(np.abs(traj.beta[traj.t >= 0.0])))
    return None, peak, None, True


def _check_oscillation_fundamental():
    traj = _long_run_attempt()
    if sign_changes(traj.beta[traj.t >= 0.0]) < 4:
        return _ETA_FIRST / (2.0 * math.pi), None, None, True
    got = estimate_spectrum(traj, (0.0, float(traj.t[-1])))
    return _ETA_FIRST / (2.0 * math.pi), got[0].frequency, None, True


# --- physical numbers ------------------------------------------------

def _check_electron_radius():
    r = model.effective_radius()
    tol = 0.005 * 3.52e-16
    return 3.52e-16, r, tol, abs(r - 3.52e-16) <= tol


def _check_period_classical():
    T = model.zitter_period(model.classical_radius())
    tol = 0.01 * 1.18e-22
    return 1.18e-22, T, tol, abs(T - 1.18e-22) <= tol


def _check_period_model():
    T = model.zitter_period(model.effective_radius())
    return None, T, None, True


@dataclass(frozen=True)
class Check:
    check_id: str
    detail: str
    run: Callable[[], tuple]


REGISTRY: tuple[Check, ...] = (
    Check("real_root",
          "dominant real characteristic rate against the coarse estimate "
          "9/5 (c/d units)", _check_real_root),
    Check("real_root_residual",
          "characteristic-function residual at the polished dominant root",
          _check_real_root_residual),
    Check("rest_census",
          "root census on [-1,3]x[-1,1]: the double root at the origin "
          "plus one positive real root and nothing else", _check_rest_census),
    Check("half_plane_roots",
          "smallest real part among nonzero roots in [-10,10]x[-100,100]; "
          "must be positive (every mode unstable)", _check_half_plane),
    Check("winding_census_match",
          "argument-principle winding count equals the census multiplicity "
          "on the wide region", _check_winding_match),
    Check("branch_ladder_drift_invariance",
          "largest relative spread of the first ten oscillatory-branch "
          "frequencies across drift speeds 0, 0.3, 0.6, 0.9",
          _check_ladder_drift_invariance),
    Check("branch_ladder_linearity",
          "1 - R^2 of the branch-frequency ladder against its linear fit",
          _check_ladder_linearity),
    Check("series_identities",
          "number of failing exact rational-coefficient series identities",
          _check_series_identities),
    Check("q_sequence_quadrature",
          "worst gap between the exact q_n coefficients and the periodic "
          "quadrature of cos^(2n), n = 1..8", _check_q_sequence),
    Check("energy_decomposition",
          "worst |U - (gamma + Q)| over the seeded kinematic sweep",
          _check_energy_decomposition),
    Check("series_vs_closed_potential",
          "30-term self-potential series against the closed form at "
          "beta = 0.3, y = 0.5", _check_series_vs_closed),
    Check("duffing_stationary_points",
          "worst residual force at the origin and the two wells "
          "+-sqrt(2/3)", _check_duffing_stationary),
    Check("lightcone_pythagoras",
          "worst |r^2 - l^2 - 1| over the seeded kinematic sweep",
          _check_pythagoras),
    Check("lightcone_denominator",
          "worst |gamma (r - l beta) - sqrt(1 + y)| over the seeded "
          "kinematic sweep", _check_denominator),
    Check("retarded_delay_consistency",
          "implicit retarded-time solve against the closed-form delay on "
          "uniform trajectories", _check_retarded_delay),
    Check("uniform_invariance",
          "worst |x - beta t| over a 50-unit exact march of the beta = 0.5 "
          "uniform state", _check_uniform_invariance),
    Check("rest_growth_rate",
          "measured growth rate of a 1e-6 kick at rest against the "
          "dominant characteristic root", _check_rest_rate),
    Check("drift_growth_rate_beta05",
          "measured growth rate on the beta = 0.5 drift against the "
          "time-dilated root prediction", lambda: _drift_rate(0.5)),
    Check("drift_growth_rate_beta09",
          "measured growth rate on the beta = 0.9 drift against the "
          "time-dilated root prediction", lambda: _drift_rate(0.9)),
    Check("truncated_growth_rate",
          "early growth rate of the truncated third-order model "
          "(must be 3, not the full-equation 1.79)", _check_truncated_rate),
    Check("long_run_bounded",
          "bounded self-oscillation over a 100-unit horizon from a 1e-6 "
          "rest kick; the measured run instead coasts monotonically into "
          "the light barrier and stops early, so this check fails and is "
          "kept failing on purpose", _check_long_run_bounded),
    Check("saturation_amplitude",
          "peak |beta| of the long-horizon attempt (reported measurement; "
          "no saturated cycle exists, the run ends in a light-barrier "
          "coast)", _check_saturation_amplitude),
    Check("oscillation_fundamental",
          "fundamental frequency (cycles per d/c) of a saturated cycle for "
          "comparison with the first oscillatory branch; null when no "
          "cycle exists to measure", _check_oscillation_fundamental),
    Check("electron_radius",
          "effective radius d/2 in metres from the mass-as-field-energy "
          "separation", _check_electron_radius),
    Check("zitter_period_classical",
          "trembling-motion period 4 pi r/c in seconds at the classical "
          "electron radius", _check_period_classical),
    Check("zitter_period_model",
          "trembling-motion period at the model's own radius d/2: exactly "
          "one eighth of the classical-radius value (reported measurement)",
          _check_period_model),
)


def run_report(only: str | None = None,
               on_timing: Callable[[str, float], None] | None = None
               ) -> list[dict]:
    """Execute the registry (optionally filtered) with per-check isolation.

    A check that raises is recorded as a failure with the exception in
    its detail; it never stops the rest of the report.  on_timing, if
    given, receives each check's id and wall time in seconds as soon as
    the check ends.
    """
    records = []
    for check in REGISTRY:
        if only is not None and only not in check.check_id:
            continue
        detail = check.detail
        start = time.perf_counter()
        try:
            expected, measured, tolerance, passed = check.run()
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            expected = measured = tolerance = None
            passed = False
            detail = f"{detail} [error: {type(exc).__name__}: {exc}]"
        if on_timing is not None:
            on_timing(check.check_id, time.perf_counter() - start)
        records.append({
            "check_id": check.check_id,
            "detail": detail,
            "expected": expected,
            "measured": measured,
            "tolerance": tolerance,
            "pass": bool(passed),
        })
    return records


def render_report(records: list[dict]) -> str:
    return "".join(format_record(rec) + "\n" for rec in records)
