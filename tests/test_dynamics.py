import hashlib
import math

import numpy as np
import pytest
from conftest import LAMBDA_STAR

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
    residual_eom_many,
)
from zitterlab.model import KinematicState, lorentz_gamma
from zitterlab.roots import dominant_real_root
from zitterlab.trajectory import SeedHistory, SuperluminalError, Trajectory

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


def test_seed_histories():
    kick = SeedHistory.rest_kick(1e-6)
    assert kick.beta == 0.0
    assert kick.beta + kick.offsets(-3.0)[1] == 0.0
    assert kick.offsets(-0.5)[2] != 0.0

    drift = SeedHistory.uniform_motion(0.5)
    assert drift.beta == 0.5
    assert drift.beta + drift.offsets(-1.0)[1] == 0.5
    assert drift.offsets(-0.7)[2] == 0.0

    mode = SeedHistory.mode_kick(0.5, 1e-6)
    assert mode.beta == 0.5
    assert abs(mode.offsets(0.0)[1]) > 0.0


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
        assert abs(residual_eom_many(exact_run, np.array([t]))[0]) < 1e-8


def test_residual_many_matches_scalar(exact_run):
    ts = np.linspace(0.4, 1.1, 11)
    many = residual_eom_many(exact_run, ts)
    each = [residual_eom_many(exact_run, np.array([t]))[0] for t in ts]
    assert np.allclose(many, each, atol=1e-12)


def test_residual_many_empty_input(exact_run):
    assert residual_eom_many(exact_run, np.array([])).shape == (0,)


def test_residual_audit_tightens_with_grid():
    # truncation-dominated regime: each halving of the grid cuts the
    # residual about fourfold (3.1e-13, 8.4e-14, 2.2e-14), the march's
    # second order; 1.504 is a whole number of steps of each grid
    residuals = []
    for grid in (8e-3, 4e-3, 2e-3):
        traj = propagate_exact(SeedHistory.mode_kick(0.0, 1e-3), 1.504, grid)
        ts = traj.t[(traj.t >= 1.05) & (traj.t <= 1.45)][::5]
        residuals.append(float(np.max(np.abs(residual_eom_many(traj, ts)))))
    assert residuals[1] < 0.35 * residuals[0]
    assert residuals[2] < 0.35 * residuals[1]


# the largest relative error measured, doubled
SEED_PASS_ERRORS = {0.0: 9.3e-12, 0.3: 2.2e-6, 0.6: 7.4e-6, 0.9: 6.9e-5}


@pytest.mark.parametrize("beta", SEED_PASS_ERRORS)
def test_seed_pass_continues_the_mode(beta):
    # the mode kick solves the linearized equation, so its seed pass
    # continues it: beta - drift follows the seed's own A rate e^{rate t}
    # over the rate run's fit window, short of the first delay crossing
    gamma = lorentz_gamma(beta)
    seed = SeedHistory.mode_kick(beta, 1e-6)
    traj = propagate_exact(seed, 1e-3 * math.ceil(0.95 * gamma / 1e-3))
    fit = (traj.t > 0.4 * gamma) & (traj.t <= 0.95 * gamma)
    mode = seed.offsets(traj.t[fit])[1]
    err = np.max(np.abs(traj.beta[fit] - beta - mode) / mode)
    assert err < SEED_PASS_ERRORS[beta]


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


def _loop_peaks(traj, window):
    """estimate_spectrum's peaks, one frequency bin at a time: the
    reference the array pass must match bit for bit."""
    sel = (traj.t >= window[0]) & (traj.t <= window[1])
    s = traj.beta[sel] - traj.beta[sel].mean()
    power = np.abs(np.fft.rfft(s * np.hanning(s.size))) ** 2
    step = np.fft.rfftfreq(s.size, float(np.diff(traj.t[sel])[0]))[1]
    floor = 1e-12 * float(np.max(power))
    peaks = []
    for k in range(1, power.size - 1):
        if power[k] > power[k - 1] and power[k] >= power[k + 1] \
                and power[k] > floor:
            lm, l0, lp = np.log(power[k - 1:k + 2])
            denom = lm - 2.0 * l0 + lp
            shift = 0.5 * (lm - lp) / denom if denom < 0 else 0.0
            peaks.append((float((k + shift) * step), float(power[k])))
    peaks.sort(key=lambda p: -p[1])
    return peaks[:4]


def test_spectrum_matches_the_loop_reference():
    rng = np.random.default_rng(11)
    for i in range(40):
        n = int(rng.integers(256, 2000))
        t = np.arange(n) * 0.01
        beta = (1e-3 * rng.standard_normal(n) if i % 2 else sum(
            rng.uniform(1e-4, 1e-2)
            * np.cos(2 * np.pi * rng.uniform(0.1, 40) * t + rng.uniform(0, 6))
            for _ in range(int(rng.integers(1, 8)))))
        traj = Trajectory(t, np.cumsum(beta) * 0.01, beta, np.gradient(beta, t))
        window = (0.0, float(t[-1]))
        assert [(p.frequency, p.power) for p in
                estimate_spectrum(traj, window)] == _loop_peaks(traj, window)


def test_spectrum_needs_samples():
    traj = _synthetic(0.0, freq=1.5, t1=0.1, n=41)
    with pytest.raises(TooFewSamplesError):
        estimate_spectrum(traj, (0.0, 0.1))


def test_perturbed_uniform_run_contract(rate_runs):
    est = rate_runs[0.5]
    assert est.mode in ("direct", "envelope")
    assert est.stderr < 0.05 * abs(est.rate)


@pytest.mark.parametrize("beta", [1.0, -1.0, math.nan])
def test_rate_run_refuses_light_speed(beta):
    with pytest.raises(ValueError, match="beta must be in"):
        perturbed_uniform_run(beta, 1e-6)


def test_rate_run_is_the_seed_pass(monkeypatch):
    # the march ends a grid step past the fit window at most, before the
    # first delay crossing, so every row it reads is an arrival of the
    # analytic seed
    def refuse(*args):
        raise AssertionError("the rate run re-emitted a row")
    monkeypatch.setattr(dynamics, "_emitters", refuse)
    for beta in (0.0, 0.5, 0.9, 0.99):
        perturbed_uniform_run(beta, 1e-6)


@pytest.mark.parametrize("beta", [0.92, 0.95, 0.99])
def test_rate_run_holds_as_the_grid_is_refined(beta):
    # what perturbed_uniform_run does, on three grids: the march re-emits
    # nothing, so refining it neither folds nor raises, and the rate is
    # converged
    gamma = lorentz_gamma(beta)
    rates = []
    for grid in (1e-3, 5e-4, 2e-4):
        traj = propagate_exact(SeedHistory.mode_kick(beta, 1e-6),
                               grid * math.ceil(0.95 * gamma / grid), grid)
        rates.append(estimate_growth_rate(
            traj, (0.4 * gamma, 0.95 * gamma), reference=beta).rate)
    assert max(rates) - min(rates) < 1e-7 * rates[0]
    assert rates[0] == pytest.approx(LAMBDA_STAR / gamma, rel=0.15)


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


def _fd_velocity_ratio(traj, drift):
    """Median of the recovered beta - drift over the centered difference
    of the comoving position, on the forward rows."""
    u = traj.x - drift * traj.t
    i = np.flatnonzero(traj.t > 0.05)[:-1]
    dudt = (u[i + 1] - u[i - 1]) / (traj.t[i + 1] - traj.t[i - 1])
    return float(np.median((traj.beta[i] - drift) / dudt))


@pytest.mark.parametrize("t_end", [3.0, 3.4])
def test_filtered_velocity_matches_position_on_grid(t_end):
    traj = propagate_filtered(SeedHistory.uniform_kick(0.3, 1e-3), t_end,
                              0.01)
    assert traj.t[-1] == t_end
    assert _fd_velocity_ratio(traj, 0.3) == pytest.approx(1.0, abs=5e-4)


def test_filtered_refuses_an_off_grid_end():
    # 3.045 is 304.5 steps of 0.01: the forward rows would sit 0.0100164
    # apart while _fd5 differentiates them as 0.01 apart, and beta would
    # run 0.15% above dx/dt; the exact march differentiates the same way
    for march in (propagate_filtered, propagate_exact):
        with pytest.raises(ValueError, match="whole number of grid steps"):
            march(SeedHistory.uniform_kick(0.3, 1e-3), 3.045, 0.01)


@pytest.mark.parametrize("march", [propagate_exact, propagate_filtered],
                         ids=["exact", "filtered"])
def test_march_refuses_an_end_inside_half_a_step(march):
    with pytest.raises(ValueError, match="shorter than half the grid step"):
        march(SeedHistory.rest_kick(1e-6), 1e-4)


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

# Every path of both instruments: clean finishes, both exact raises, the
# three filtered abort reasons under partial=True and the strict raise.
# Each expectation is the sha256 of t, x, beta, beta_dot (tobytes, in
# that order) plus the metadata, or the exception type and message.
PINNED_MARCHES = {
    "exact-mode-b0": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.0, 1e-6), 1.3, {},
        "755201c16425f4e7c0fa80fe0974c4fa5a8d0b7ee178f1acaa7e70ef4ec48975",
        {**_EXACT_MD, "drift": 0.0,
         "seed": "mode_kick(amp=1e-06,beta=0,rate=1.79328)"}),
    "exact-mode-b09": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.9, 1e-6), 3.0, {},
        "eb8c6a5c53acc04cdaa49bdd839f3eb3d866091ba44865232da4edc922c9444f",
        {**_EXACT_MD, "drift": 0.9,
         "seed": "mode_kick(amp=1e-06,beta=0.9,rate=0.781674)"}),
    "exact-uniform-b05": (
        propagate_exact, lambda: SeedHistory.uniform_motion(0.5), 50.0, {},
        "3fd64d960108e6304287c47d1b4a505f6faa64e4f2f658944adb0524462fbb8e",
        {**_EXACT_MD, "drift": 0.5, "seed": "uniform_motion(amp=0,beta=0.5)"}),
    "exact-mode-coarse": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.0, 1e-3), 1.504,
        {"grid": 8e-3},
        "a1a318fde5b6d05b7965d598ccbcfb7407b5b0604129c854aad9b83627a37cea",
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
    # completes only through _march's past-the-grid trim: without it the
    # pass that reaches past t_end folds the arrival order at t = 2.639
    "filtered-uniform-kick-trim": (
        propagate_filtered, lambda: SeedHistory.uniform_kick(0.3, 1e-4), 3.0,
        {"sigma": 0.3, "kernel_span": 0.6, "partial": True},
        "e3d9369f6547bf74ce47fddb9c90468afe97d4080dd85f6ada6070e15b4c768a",
        {**_FILTERED_MD, "sigma": 0.3, "kernel_span": 0.6, "drift": 0.3,
         "seed": "uniform_kick(amp=0.0001,beta=0.3)"}),
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


def _filtered_partial(seed, t_end, grid):
    return propagate_filtered(seed, t_end, grid, partial=True)


# One table for both kernels: passes capped at 512, 2048 and 8192
# emitters give these digests, and so does the march, whose passes take
# every ready row.  Each case's last pass reaches past t_end and ends
# through the past-the-grid trim.
BLOCK_CASES = {
    "exact-b05": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.5, 1e-6), 2.3, 5e-4,
        "66eaf53d655ebbc2378440568761b5e64bc7ff0db506c51f3d1c85625b89aea0"),
    "exact-b05-fine": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.5, 1e-6), 2.3001,
        3e-4,
        "7f0e3a3d25b8aae6acb59941b9d54951b0ea0de151b405544ccf63b4674da57c"),
    "exact-b09": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.9, 1e-6), 4.4, 1e-3,
        "691b6ccd460cda55bd4a80a7ca1082b9290c03fa70c529e4ce7033b6bdabd7e9"),
    "exact-b03": (
        propagate_exact, lambda: SeedHistory.mode_kick(0.3, 1e-6), 2.0, 2e-4,
        "af15e815b8c790539b4a05a9f751cdb7fdf62c376084d1d95bae982940bafcf0"),
    "filtered-uniform-kick": (
        _filtered_partial, lambda: SeedHistory.uniform_kick(0.3, 1e-4), 6.0,
        1e-3,
        "caa46dd8191b2ef9466f207effdd7516498454b5e02e99c8f69173f99e192975"),
    "filtered-rest-kick": (
        _filtered_partial, lambda: SeedHistory.rest_kick(1e-6), 9.0, 1e-3,
        "20ef036f2ef22aa03efe12aaa4f3ccfb8a4644c9c6f668ad554e199b6d30cd60"),
    "filtered-mode-kick": (
        _filtered_partial, lambda: SeedHistory.mode_kick(0.5, 1e-6), 4.0,
        5e-4,
        "19f974a30a64a8306a887ea9b2cb941f52e5e1d10feec7c7cbba262b48244c42"),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_march_does_not_depend_on_block(case):
    march, seed, t_end, grid, digest = BLOCK_CASES[case]
    assert _run_digest(march(seed(), t_end, grid)) == digest


def test_exact_march_trims_arrivals_past_the_grid():
    # the last pass reaches past t_end with rows whose arrivals fold the
    # order (one lands at t = 1843); trimmed, the run completes, with
    # |beta| peaking at 0.0975 at t = 2 on the noise that grows from the
    # second delay crossing on
    traj = propagate_exact(SeedHistory.mode_kick(0.0, 1e-6), 3.0, 2e-4)
    assert _run_digest(traj) == \
        "fd350d8226d0833b9a38a043a3b5347ed2ed3fb8a90b594d4d76cd290c1ad8de"
    assert float(np.max(np.abs(traj.beta))) == \
        pytest.approx(0.0975, abs=5e-5)


# --- the exact march against the exact linear oracle ------------------

@pytest.fixture(scope="module")
def rest_oracle():
    pytest.importorskip("mpmath")
    from linear_oracle import RestKickOracle
    return RestKickOracle(1e-6)


def test_exact_march_matches_the_linear_oracle_in_generation_1(rest_oracle):
    # on (0, 1) the 1e-6 rest kick's velocity is (D + D^2 + D^3) of the
    # seed offset one delay back; measured: 1.38e-3 relative at worst
    # where the oracle's |beta| > 1e-6 (t = 0.887), 1.69e-5 at its peak
    # |beta| = 6.06e-5 (t = 0.126); gated at twice those
    traj = propagate_exact(SeedHistory.rest_kick(1e-6), 1.0, 1e-3)
    inside = (traj.t > 0.0) & (traj.t < 1.0)
    t, beta = traj.t[inside], traj.beta[inside]
    want = np.array([float(rest_oracle.beta(1, s)) for s in t])
    assert float(np.max(np.abs(want))) == pytest.approx(6.06e-5, rel=1e-3)
    live = np.abs(want) > 1e-6
    rel = np.abs(beta[live] - want[live]) / np.abs(want[live])
    assert float(np.max(rel)) <= 2.8e-3
    peak = int(np.argmax(np.abs(want)))
    assert abs(beta[peak] - want[peak]) / abs(want[peak]) <= 3.4e-5


@pytest.mark.parametrize("dt", [2e-3, 1e-3, 5e-4])
def test_exact_march_stops_at_the_oracles_light_barrier(rest_oracle, dt):
    # the oracle's generation 2 first reaches |beta| = 1 at t = 1.11248;
    # the unfiltered march stops there with SuperluminalError at every
    # dt, at t_reached 1.112 (measured at each dt): its last grid row
    # before the crossing, so within one dt of it
    crossing = rest_oracle.light_barrier(2)
    assert crossing == pytest.approx(1.11248, abs=1e-5)
    traj = dynamics._march(SeedHistory.rest_kick(1e-6), 2.0, dt, np.ones(1),
                           True, {})
    assert traj.metadata["aborted"] == "SuperluminalError"
    assert 0.0 <= crossing - traj.metadata["t_reached"] < dt


def test_exact_march_mode_kick_error_grows_as_dt_shrinks():
    # the 1e-9 mode kick at rest is an exact solution, beta = A lambda*
    # e^(lambda* t); from the second delay window on the march
    # differentiates its own rounding noise, so each halving of dt
    # multiplies the largest relative error there (measured: 7.4x at
    # least; 4.5e-4 -> 29 on (1, 2] and 2.1e-3 -> 102 on (2, 2.75] from
    # dt = 2e-3 to 2.5e-4), while (0, 1] stays at 3.4e-6 or below.  This
    # pins the instrument's known behaviour; it is not a bound.
    seed = SeedHistory.mode_kick(0.0, 1e-9)
    worst = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        traj = propagate_exact(seed, 2.75, dt)
        want = seed.offsets(traj.t)[1]
        rel = np.abs(traj.beta - want) / np.abs(want)
        worst.append([float(np.max(rel[(traj.t > a) & (traj.t <= b)]))
                      for a, b in ((0.0, 1.0), (1.0, 2.0), (2.0, 2.75))])
    worst = np.array(worst)
    assert np.all(worst[:, 0] < 1e-5)
    assert np.all(worst[1:, 1:] > 5.0 * worst[:-1, 1:])
