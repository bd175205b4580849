import math

import numpy as np
import pytest

from zitterlab.dynamics import (
    DegenerateSignalError,
    TooFewSamplesError,
    estimate_growth_rate,
    estimate_spectrum,
    integrate_truncated,
    perturbed_uniform_run,
    propagate_exact,
    propagate_filtered,
    residual_eom,
    residual_eom_many,
)
from zitterlab.model import KinematicState, lorentz_gamma
from zitterlab.roots import dominant_real_root
from zitterlab.trajectory import SeedHistory, SuperluminalError, Trajectory

LAMBDA_STAR = 1.793282132900762
DRIFT_RATES = {0.5: 1.5530278832448012, 0.9: 0.78167355945714945}


# --- trajectory container and seeds -----------------------------------

def test_trajectory_dense_output_matches_knots():
    t = np.linspace(-1.0, 2.0, 301)
    beta = 0.4 * np.sin(t)
    x = 0.4 * (1.0 - np.cos(t))
    traj = Trajectory(t, x, beta, 0.4 * np.cos(t))
    mid = np.linspace(-0.9, 1.9, 57)
    assert np.allclose(traj.position(t), x, atol=0)
    assert np.allclose(traj.velocity(mid), 0.4 * np.sin(mid), atol=1e-9)
    assert np.allclose(traj.acceleration(mid), 0.4 * np.cos(mid), atol=1e-5)


def test_trajectory_rejects_bad_knots():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        Trajectory(t, t, np.full(11, 1.0), np.zeros(11))
    with pytest.raises(ValueError):
        Trajectory(t[::-1], t, np.zeros(11), np.zeros(11))


def test_trajectory_window():
    t = np.linspace(-2.0, 2.0, 41)
    traj = Trajectory(t, 0.1 * t, np.full(41, 0.1), np.zeros(41))
    w = traj.window(-1.0, 1.0)
    assert w.t0 >= -1.0 - 1e-12 and w.t1 <= 1.0 + 1e-12
    assert w.position(0.5) == pytest.approx(0.05, rel=1e-12)


def test_seed_histories():
    kick = SeedHistory.rest_kick(1e-6)
    assert kick.drift == 0.0
    assert kick.velocity(-3.0) == 0.0
    assert kick.acceleration(-0.5) != 0.0

    drift = SeedHistory.uniform_motion(0.5)
    assert drift.drift == 0.5
    assert drift.velocity(-1.0) == 0.5
    assert drift.acceleration(-0.7) == 0.0

    mode = SeedHistory.mode_kick(0.5, 1e-6)
    assert mode.drift == 0.5
    assert abs(mode.velocity(0.0) - 0.5) > 0.0

    t = np.linspace(-2.0, 0.5, 26)
    table = Trajectory(t, 0.0 * t, np.zeros(26), np.zeros(26))
    with pytest.raises(ValueError):
        SeedHistory.custom(table)


def test_seed_describe_is_stable():
    a = SeedHistory.mode_kick(0.3, 1e-6).describe()
    b = SeedHistory.mode_kick(0.3, 1e-6).describe()
    assert a == b and "mode_kick" in a


# --- exact march -------------------------------------------------------

def test_uniform_motion_is_invariant():
    for beta in (0.0, 0.5):
        traj = propagate_exact(SeedHistory.uniform_motion(beta), 5.0)
        assert float(np.max(np.abs(traj.beta - beta))) == 0.0
        assert float(np.max(np.abs(traj.beta_dot))) == 0.0


def test_rest_growth_rate_matches_root(rate_runs):
    rate = rate_runs[0.0]
    assert rate.rate == pytest.approx(LAMBDA_STAR, rel=1e-6)
    assert rate.n_points > 50


def test_drift_growth_rates_time_dilate(rate_runs):
    for beta, want in DRIFT_RATES.items():
        got = rate_runs[beta].rate
        assert got == pytest.approx(want, rel=1e-4)
        assert got == pytest.approx(LAMBDA_STAR / lorentz_gamma(beta),
                                    rel=1e-4)


def test_exact_march_residual_is_small(exact_run):
    ts = exact_run.t[(exact_run.t > 0.3) & (exact_run.t < 1.2)][::37]
    res = residual_eom_many(exact_run, ts)
    assert float(np.max(np.abs(res))) < 1e-9


def test_residual_off_knot_sampling(exact_run):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.3, 1.2, 9)
    for t in ts:
        assert abs(residual_eom(exact_run, float(t))) < 1e-8


def test_residual_many_matches_scalar(exact_run):
    ts = np.linspace(0.4, 1.1, 11)
    many = residual_eom_many(exact_run, ts)
    each = [residual_eom(exact_run, float(t)) for t in ts]
    assert np.allclose(many, each, atol=1e-12)


def test_residual_many_empty_input(exact_run):
    assert residual_eom_many(exact_run, np.array([])).shape == (0,)


def test_residual_audit_tightens_with_grid():
    # truncation-dominated regime: halving the grid must collapse the
    # residual (the march itself is exact; recovery error is high order)
    results = {}
    for grid in (8e-3, 4e-3):
        traj = propagate_exact(SeedHistory.mode_kick(0.0, 1e-3), 1.5, grid)
        ts = traj.t[(traj.t >= 1.05) & (traj.t <= 1.45)][::5]
        results[grid] = float(np.max(np.abs(residual_eom_many(traj, ts))))
    assert results[4e-3] < 0.1 * results[8e-3]


def test_arrow_of_time():
    traj = propagate_exact(SeedHistory.mode_kick(0.0, 1e-6), 1.0)
    assert np.all(np.diff(traj.t) > 0)
    assert traj.t[-1] >= 1.0


# --- truncated integrator ----------------------------------------------

def test_truncated_rate_is_wrong_by_two_thirds():
    # the low-order truncation inflates the instability rate to 3
    traj = integrate_truncated(KinematicState(beta_dot=1e-8), 5.0, 1e-3)
    rate = estimate_growth_rate(traj, (1.5, 4.0)).rate
    assert rate == pytest.approx(3.0, rel=0.05)
    assert abs(rate - LAMBDA_STAR) / LAMBDA_STAR > 0.5


def test_truncated_integrator_metadata():
    traj = integrate_truncated(KinematicState(beta_dot=1e-8), 1.0, 1e-3)
    assert "truncated" in traj.metadata["integrator"]


# --- growth-rate and spectrum estimators -------------------------------

def _synthetic(rate, freq=None, t1=6.0, n=2401, amp=1e-9):
    t = np.linspace(0.0, t1, n)
    env = amp * np.exp(rate * t)
    if freq is None:
        beta = env
        beta_dot = rate * env
    else:
        w = 2.0 * math.pi * freq
        beta = env * np.cos(w * t)
        beta_dot = env * (rate * np.cos(w * t) - w * np.sin(w * t))
    x = np.concatenate(([0.0], np.cumsum(0.5 * (beta[1:] + beta[:-1])
                                         * np.diff(t))))
    return Trajectory(t, x, beta, beta_dot)


def test_growth_rate_direct_mode():
    traj = _synthetic(0.7)
    est = estimate_growth_rate(traj, (1.0, 5.0))
    assert est.mode == "direct"
    assert est.rate == pytest.approx(0.7, rel=1e-6)


def test_growth_rate_envelope_mode():
    traj = _synthetic(0.5, freq=1.8)
    est = estimate_growth_rate(traj, (1.0, 5.5))
    assert est.mode == "envelope"
    assert est.rate == pytest.approx(0.5, rel=0.02)


def test_growth_rate_rejects_flat_signal():
    t = np.linspace(0.0, 3.0, 301)
    traj = Trajectory(t, np.zeros_like(t), np.zeros_like(t),
                      np.zeros_like(t))
    with pytest.raises(DegenerateSignalError):
        estimate_growth_rate(traj, (0.5, 2.5))


def test_spectrum_peak_recovery():
    traj = _synthetic(0.0, freq=1.5)
    peaks = estimate_spectrum(traj, (0.0, 6.0))
    assert peaks[0].frequency == pytest.approx(1.5, abs=2e-3)


def test_spectrum_needs_samples():
    traj = _synthetic(0.0, freq=1.5, t1=0.1, n=41)
    with pytest.raises(TooFewSamplesError):
        estimate_spectrum(traj, (0.0, 0.1))


def test_perturbed_uniform_run_contract(rate_runs):
    est = rate_runs[0.5]
    assert est.mode in ("direct", "envelope")
    assert est.stderr < 0.05 * abs(est.rate)


# --- filtered march ----------------------------------------------------

def test_filtered_uniform_is_invariant():
    traj = propagate_filtered(SeedHistory.uniform_motion(0.5), 8.0)
    assert float(np.max(np.abs(traj.beta - 0.5))) == 0.0
    assert "aborted" not in traj.metadata


def test_filtered_long_attempt_dies_at_light_barrier(long_attempt):
    # the unstable real branch passes through any causal filter; from a
    # rest kick the march coasts monotonically toward |beta| = 1 and
    # stops just short of the horizon it was asked for
    md = long_attempt.metadata
    assert md["aborted"] == "SuperluminalError"
    assert 8.0 < md["t_reached"] < 12.0
    assert float(np.max(np.abs(long_attempt.beta))) < 1.0
    fwd = long_attempt.beta[long_attempt.t > 1.0]
    signs = np.sign(fwd[fwd != 0.0])
    assert np.count_nonzero(np.diff(signs) != 0) == 0


def test_filtered_strict_mode_raises():
    with pytest.raises(SuperluminalError):
        propagate_filtered(SeedHistory.rest_kick(1e-6), 12.0)


def test_filtered_partial_keeps_subluminal_prefix(long_attempt):
    assert np.all(np.abs(long_attempt.beta) < 1.0)
    assert long_attempt.metadata["sigma"] == pytest.approx(0.45)
    assert long_attempt.metadata["kernel_span"] == pytest.approx(0.90)
