import hashlib
import math

import numpy as np
import pytest

from zitterlab import dynamics
from zitterlab.dynamics import (
    ArrivalOrderError,
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
    assert kick.beta == 0.0
    assert kick.velocity(-3.0) == 0.0
    assert kick.acceleration(-0.5) != 0.0

    drift = SeedHistory.uniform_motion(0.5)
    assert drift.beta == 0.5
    assert drift.velocity(-1.0) == 0.5
    assert drift.acceleration(-0.7) == 0.0

    mode = SeedHistory.mode_kick(0.5, 1e-6)
    assert mode.beta == 0.5
    assert abs(mode.velocity(0.0) - 0.5) > 0.0


@pytest.mark.parametrize("build", [
    lambda: SeedHistory.uniform_motion(1.0),
    lambda: SeedHistory.uniform_kick(-1.0, 1e-6),
    lambda: SeedHistory.mode_kick(1.0, 1e-6),
], ids=["uniform_motion", "uniform_kick", "mode_kick"])
def test_seeds_reject_light_speed_drift(build):
    with pytest.raises(ValueError):
        build()


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


def test_truncated_run_is_pinned():
    # sha256 of t, x, beta, beta_dot as the numpy-array RK4 produced them
    traj = integrate_truncated(KinematicState(beta_dot=1e-8), 5.0, 1e-3)
    assert _run_digest(traj) == \
        "92f361f838f6932b6c39d2f12e0536d565ae9169650d084bfd666049d09b4967"


@pytest.mark.parametrize("state, t", [
    (KinematicState(beta_dot=0.5), "1.183"),
    (KinematicState(x=1.0, beta=0.2, beta_dot=-0.3), "1.453"),
    # an overflow to inf on the first step
    (KinematicState(beta=0.9, beta_dot=1e200), "0.001"),
])
def test_truncated_blowup_is_pinned(state, t):
    with pytest.raises(SuperluminalError) as info:
        integrate_truncated(state, 5.0, 1e-3)
    assert type(info.value) is SuperluminalError
    assert str(info.value) == (
        f"truncated model reached |beta| >= 1 near t = {t}; "
        "the truncation does not protect the light barrier")


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


# --- pinned march outputs ----------------------------------------------

def _run_digest(traj):
    h = hashlib.sha256()
    for channel in (traj.t, traj.x, traj.beta, traj.beta_dot):
        h.update(channel.tobytes())
    return h.hexdigest()


_EXACT_MD = {"integrator": "emitter-map", "grid": 1e-3, "t_start": 0.0}
_FILTERED_MD = {"integrator": "emitter-map-filtered", "grid": 1e-3,
                "sigma": 0.45, "kernel_span": 0.90, "t_start": 0.0}
_MARCH_FLIGHT = "recovered |beta| >= 1 during marching"
_OUTPUT_TRIM = "recovered |beta| >= 1 in the assembled output"
_FOLD = "non-monotone arrival times; the run is reported, not reordered"

# Every path of both marchers: clean finishes, both exact raises, the
# three filtered abort reasons under partial=True and the strict raise.
# Each expectation is the sha256 of t, x, beta, beta_dot (tobytes, in
# that order) plus the metadata, or the exception type and message.
PINNED_MARCHES = {
    "exact-mode-b0": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.0, 1e-6), 1.3, {},
        "9b4c3e873fc8b63f3c8829b0c59cf85dc27fe1d3781550d437eeefbf41d9f74a",
        {**_EXACT_MD, "drift": 0.0,
         "seed": "mode_kick(amp=1e-06,beta=0,rate=1.79328)"}),
    "exact-mode-b09": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.9, 1e-6), 3.0, {},
        "f9d102a4be46ee6af7242d054b98e99f57b81c63fe61af006f16eba467ec0c29",
        {**_EXACT_MD, "drift": 0.9,
         "seed": "mode_kick(amp=1e-06,beta=0.9,rate=0.781674)"}),
    "exact-uniform-b05": (
        propagate_exact, lambda: SeedHistory.uniform_motion(0.5), 50.0, {},
        "3fd64d960108e6304287c47d1b4a505f6faa64e4f2f658944adb0524462fbb8e",
        {**_EXACT_MD, "drift": 0.5, "seed": "uniform_motion(amp=0,beta=0.5)"}),
    "exact-mode-coarse": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.0, 1e-3), 1.5,
        {"grid": 8e-3},
        "9d666413416619e390a766423f4b48ded154fa6279970494fccd8cf4595073be",
        {**_EXACT_MD, "grid": 8e-3, "drift": 0.0,
         "seed": "mode_kick(amp=0.001,beta=0,rate=1.79328)"}),
    "exact-rest-kick-raises": (
        propagate_exact, lambda: SeedHistory.rest_kick(1e-6), 4.0, {},
        SuperluminalError, _MARCH_FLIGHT),
    "exact-uniform-kick-raises": (
        propagate_exact, lambda: SeedHistory.uniform_kick(0.4, 1e-4), 3.0, {},
        ArrivalOrderError, _FOLD),
    "filtered-uniform-b04": (
        propagate_filtered, lambda: SeedHistory.uniform_motion(0.4), 10.0, {},
        "2569586060344f485384ef64f2e5d7d0709b30a4aed1096d71ddaa117f0e2686",
        {**_FILTERED_MD, "drift": 0.4, "seed": "uniform_motion(amp=0,beta=0.4)"}),
    "filtered-rest-kick-partial": (
        propagate_filtered, lambda: SeedHistory.rest_kick(1e-6), 100.0,
        {"partial": True},
        "e8303b128fb62926489635fc37e5464e7170056118609a2bb556b65dc0292c2a",
        {**_FILTERED_MD, "drift": 0.0, "seed": "rest_kick(amp=1e-06,beta=0)",
         "aborted": "SuperluminalError", "abort_reason": _MARCH_FLIGHT,
         "t_reached": 9.676}),
    "filtered-uniform-kick-partial": (
        propagate_filtered, lambda: SeedHistory.uniform_kick(0.3, 1e-4), 20.0,
        {"partial": True},
        "39e73e17d7d706ee29e510fe8924d75b55df0a851ab04a40e17eab63169a1beb",
        {**_FILTERED_MD, "drift": 0.3, "seed": "uniform_kick(amp=0.0001,beta=0.3)",
         "aborted": "SuperluminalError", "abort_reason": _MARCH_FLIGHT,
         "t_reached": 8.52}),
    "filtered-mode-kick-fold": (
        propagate_filtered, lambda: SeedHistory.mode_kick(0.2, 1e-6), 20.0,
        {"sigma": 0.3, "kernel_span": 0.6, "partial": True},
        "014b068bb9c4791430ac2ed430c36ea3671145fead7addbc97a9a79673d0f8a1",
        {**_FILTERED_MD, "sigma": 0.3, "kernel_span": 0.6, "drift": 0.2,
         "seed": "mode_kick(amp=1e-06,beta=0.2,rate=1.75705)",
         "aborted": "ArrivalOrderError", "abort_reason": _FOLD,
         "t_reached": 5.406}),
    "filtered-rest-kick-output-trim": (
        propagate_filtered, lambda: SeedHistory.rest_kick(1e-2), 30.0,
        {"partial": True},
        "bd7ca188c96d10da5cc4264228b448a83a88c53cd9dc7ebc50b1950a3e1ac3ff",
        {**_FILTERED_MD, "drift": 0.0, "seed": "rest_kick(amp=0.01,beta=0)",
         "aborted": "SuperluminalError", "abort_reason": _OUTPUT_TRIM,
         "t_reached": 5.063}),
    "filtered-rest-kick-strict-raises": (
        propagate_filtered, lambda: SeedHistory.rest_kick(1e-6), 12.0, {},
        SuperluminalError, _OUTPUT_TRIM),
}


@pytest.mark.parametrize("case", PINNED_MARCHES)
def test_march_outputs_are_pinned(case):
    march, seed, t_end, kwargs, want, detail = PINNED_MARCHES[case]
    if isinstance(want, type):
        with pytest.raises(want) as info:
            march(seed(), t_end, **kwargs)
        assert str(info.value) == detail
        return
    traj = march(seed(), t_end, **kwargs)
    assert _run_digest(traj) == want
    assert traj.metadata == detail


# Runs whose last pass, at 512 or 2048 emitters, reached knots past t_end
# that fold the arrival order; with 8192 they finished with these digests.
BLOCK_CASES = {
    (0.5, 2.3, 5e-4):
        "bc896b2a11fce70128ee48bb46c6093e78256785882d27151311e536d591e6ca",
    (0.5, 2.3, 3e-4):
        "ea1684a1633dec56fa50580c3d213209d1ff9ed56cf0103f036465d756026df5",
    (0.9, 4.4, 1e-3):
        "63b47f9bbceb8ace5bac6142cde2335204c26c860fdba15729a17e33f9082a0a",
    (0.3, 2.0, 2e-4):
        "90dc5bd5b0d48c640a1a02d38d1b7c23afdf1c99bb9a328f965597fbcf99cc84",
}


@pytest.mark.parametrize("case", BLOCK_CASES, ids=str)
def test_exact_march_does_not_depend_on_block(case, monkeypatch):
    beta, t_end, grid = case
    for block in (512, 2048, 8192):
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        traj = propagate_exact(SeedHistory.mode_kick(beta, 1e-6), t_end, grid)
        assert _run_digest(traj) == BLOCK_CASES[case], block
