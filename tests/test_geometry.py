import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from zitterlab import geometry
from zitterlab.dynamics import (propagate_exact, propagate_filtered,
                                residual_eom_many)
from zitterlab.geometry import (
    HistoryTooShortError,
    RetardedGeometry,
    delay_closed,
    potential_denominator,
    retarded_l_closed,
    retarded_r_closed,
    solve_retarded_time,
    solve_retarded_time_many,
    y_parameter,
)
from zitterlab.model import KinematicState, lorentz_gamma
from zitterlab.trajectory import SeedHistory, Trajectory, TrajectoryDomainError


def _hand_geometry(beta, beta_dot):
    # independent route: the closed forms typed out from scratch
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    y = g ** 6 * beta_dot ** 2
    r = g * math.sqrt(1.0 + y) + g ** 4 * beta * beta_dot
    l = g * beta * math.sqrt(1.0 + y) + g ** 4 * beta_dot
    return y, r, l


def test_closed_forms_match_hand_values():
    state = KinematicState(beta=0.3, beta_dot=0.1)
    y, r, l = _hand_geometry(0.3, 0.1)
    assert y_parameter(state) == pytest.approx(y, rel=1e-14)
    assert retarded_r_closed(state) == pytest.approx(r, rel=1e-14)
    assert retarded_l_closed(state) == pytest.approx(l, rel=1e-14)


def _random_states(n=2000, seed=20260814):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-0.95, 0.95, n)
    y = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), n))
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    beta_dot = np.where(rng.random(n) < 0.5, 1.0, -1.0) * np.sqrt(y) / gamma ** 3
    return beta, beta_dot


def test_lightcone_identities_random_sweep():
    beta, beta_dot = _random_states()
    for b, bd in zip(beta, beta_dot):
        state = KinematicState(beta=b, beta_dot=bd)
        r = retarded_r_closed(state)
        l = retarded_l_closed(state)
        y = y_parameter(state)
        g = lorentz_gamma(b)
        assert abs(r * r - l * l - 1.0) < 1e-10 * max(1.0, r * r)
        assert abs((r - l * b) * g - math.sqrt(1.0 + y)) < 1e-12 * g * r
        assert potential_denominator(state) == pytest.approx(r - l * b,
                                                             rel=1e-12)


# y, r, l and r - l beta of the per-state code before the closed forms
# took arrays, as repr() printed them
PINNED_CLOSED = {
    (0.3, 0.2): (0.05308059890839746, 1.148201933551029,
                 0.5642407998455283, 0.9789296935973705),
    (-0.7, -1.3): (12.740197963076046, 8.689180794954108,
                   -8.631446164311013, 2.6471684799363997),
    (0.0, 0.0): (0.0, 1.0, 0.0, 1.0),
    (0.95, 1e-3): (0.0010789123215158693, 3.3042245065213187,
                   3.1492696914516625, 0.31241829964223955),
    (-0.2, 2.5): (7.064254195601855, 2.3557863067677114,
                  2.1330094053131248, 2.7823881878303363),
}


@pytest.mark.parametrize("beta, beta_dot", PINNED_CLOSED)
def test_float_closed_forms_are_pinned(beta, beta_dot):
    state = KinematicState(beta=beta, beta_dot=beta_dot)
    want = PINNED_CLOSED[beta, beta_dot]
    got = (y_parameter(state), retarded_r_closed(state),
           retarded_l_closed(state), potential_denominator(state))
    assert [type(v) for v in got] == [float] * 4
    assert got == want
    g, y, root, r, l, den = delay_closed(beta, beta_dot)
    assert [type(v) for v in (g, y, root, r, l, den)] == [float] * 6
    assert (y, r, l, den) == want
    assert (g, root) == (lorentz_gamma(beta), math.sqrt(1.0 + y))


def _sweeps():
    rng = np.random.default_rng(7)
    beta, beta_dot = _random_states()
    yield beta, beta_dot
    yield rng.uniform(-0.9999, 0.9999, 3000), rng.normal(0.0, 100.0, 3000)
    yield rng.uniform(-0.5, 0.5, 3000), rng.normal(0.0, 1e-3, 3000)


def test_array_closed_forms_match_float_calls():
    # numpy's power ufunc is not libm's pow, so the array path may move
    # a last bit: every form must stay within 2 ulp of the float call,
    # an ulp here being eps times the sum of the form's term magnitudes
    eps = np.finfo(float).eps
    for beta, beta_dot in _sweeps():
        got = delay_closed(beta, beta_dot)
        want = np.array([delay_closed(float(b), float(bd))
                         for b, bd in zip(beta, beta_dot)]).T
        g, y, root, r, l, den = want
        g4 = g ** 4
        scale_r = g * root + np.abs(g4 * beta * beta_dot)
        scale_l = np.abs(g * beta * root) + np.abs(g4 * beta_dot)
        scales = (g, y, root, scale_r, scale_l,
                  scale_r + np.abs(beta) * scale_l)
        for a, b, scale in zip(got, want, scales):
            assert isinstance(a, np.ndarray) and a.shape == beta.shape
            assert np.all(np.abs(a - b) <= 2.0 * eps * scale)
        assert np.array_equal(got[0], g)


@pytest.mark.parametrize("beta", [np.array([0.2, 1.0]), np.array([-1.5]),
                                  np.array([0.1, np.nan])])
def test_array_closed_forms_refuse_light_speed(beta):
    with pytest.raises(ValueError, match=r"\|beta\| must be < 1"):
        delay_closed(beta, np.zeros_like(beta))


def _uniform_traj(beta, t0=-8.0, t1=8.0, n=3201):
    t = np.linspace(t0, t1, n)
    return Trajectory(t, beta * t, np.full(n, beta), np.zeros(n))


def test_retarded_time_uniform_closed_form():
    for beta in (0.0, 0.3, 0.5, -0.7):
        g = lorentz_gamma(beta)
        traj = _uniform_traj(beta)
        for t in (0.0, 1.3, 4.0):
            geo = solve_retarded_time(traj, t)
            assert geo.t_r == pytest.approx(t - g, abs=1e-10)
            assert geo.r == pytest.approx(g, rel=1e-10)
            assert geo.l == pytest.approx(g * beta, abs=1e-10)


def test_retarded_time_needs_history():
    traj = _uniform_traj(0.0, t0=-0.5)
    with pytest.raises(HistoryTooShortError):
        solve_retarded_time(traj, 0.2)


# The largest |delta r| and |delta l| measured over this strategy's
# range, on 200,000 times a run and 100,000 more within 1e-2 of the
# lowest: 2.4e-11 and 2.7e-11, both at beta = 0.9 with a 1e-6 kick and t
# just past t0 + 2.5 gamma.  The gate is twice the larger.
_CLOSED_ON_MARCH_TOL = 5.4e-11


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.0, 0.9), log_kick=st.floats(-9.0, -6.0),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True),
                          min_size=1, max_size=20))
def test_closed_forms_match_the_light_cone_on_marched_runs(beta, log_kick,
                                                           fractions):
    # on the seed pass of a mode kick, marched as perturbed_uniform_run
    # marches it, r and l of the emitter's state at the implicit solve's
    # t_r are the light cone's t - t_r and x(t) - x(t_r)
    gamma = lorentz_gamma(beta)
    grid = 1e-3
    t_end = grid * math.ceil(0.95 * gamma / grid)
    traj = propagate_exact(SeedHistory.mode_kick(beta, 10.0 ** log_kick),
                           t_end, grid)
    lo = traj.t0 + 2.5 * gamma
    ts = lo + np.array(fractions) * (t_end - lo)   # in (lo, t_end]
    t_r = solve_retarded_time_many(traj, ts)
    _, _, _, r, l, _ = delay_closed(traj.velocity(t_r),
                                    traj.acceleration(t_r))
    assert np.max(np.abs((ts - t_r) - r)) < _CLOSED_ON_MARCH_TOL
    assert np.max(np.abs(traj.position(ts) - traj.position(t_r) - l)
                  ) < _CLOSED_ON_MARCH_TOL


def _brent_retarded_time(traj, t):
    # independent route: Brent's method on the light-cone condition,
    # bracketed by the start of the history and one crossing back
    x_t = float(traj.position(t))

    def g(s):
        return (t - s) - math.sqrt((x_t - float(traj.position(s))) ** 2 + 1.0)

    return brentq(g, traj.t0, t - 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def test_vectorized_solver_matches_scalar(exact_run):
    ts = np.linspace(0.2, 1.2, 17)
    many = solve_retarded_time_many(exact_run, ts)
    for t, t_r in zip(ts, many):
        assert t_r == pytest.approx(_brent_retarded_time(exact_run, t),
                                    abs=1e-9)
        assert solve_retarded_time(exact_run, t).t_r == t_r


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_batched_solve_equals_scalar_solves(beta):
    # the report's light-cone check: nine times in one call
    traj = propagate_exact(SeedHistory.uniform_motion(beta), 4.0)
    ts = np.linspace(1.5, 3.5, 9)
    many = solve_retarded_time_many(traj, ts)
    one_by_one = np.array([solve_retarded_time(traj, float(t)).t_r
                           for t in ts])
    assert many.view(np.uint64).tolist() == \
        one_by_one.view(np.uint64).tolist()


@pytest.mark.parametrize("beta, t, why", [(0.0, 0.2, "too short"),
                                          (0.5, 0.6, "no retarded bracket")])
def test_vector_solver_needs_history(beta, t, why):
    traj = _uniform_traj(beta, t0=-0.5)
    with pytest.raises(HistoryTooShortError, match=why):
        solve_retarded_time_many(traj, np.array([4.0, t]))


def test_solves_refuse_a_nan_time():
    # NaN fails every comparison, so each check is written to fail on it
    traj = propagate_exact(SeedHistory.uniform_motion(0.3), 2.0)
    with pytest.raises(TrajectoryDomainError):
        solve_retarded_time(traj, math.nan)
    with pytest.raises(TrajectoryDomainError):
        solve_retarded_time_many(traj, np.array([1.5, math.nan]))
    with pytest.raises(TrajectoryDomainError):
        residual_eom_many(traj, np.array([1.5, math.nan]))


def test_vector_solver_empty_input():
    out = solve_retarded_time_many(_uniform_traj(0.3), np.array([]))
    assert out.shape == (0,)


def _fixed_bisection(traj, ts, iters=90):
    # the reference: every element takes all iters halvings, and every
    # evaluation looks its knot interval up afresh
    x_t = np.asarray(traj.position(ts), dtype=float)

    def g(s):
        dx = x_t - traj.position(s)
        return (ts - s) - np.sqrt(dx * dx + 1.0)

    hi = ts - 1.0
    lo = np.maximum(ts - 2.0, traj.t0)
    for _ in range(60):
        need = g(lo) <= 0.0
        at_edge = lo <= traj.t0
        if not np.any(need & ~at_edge):
            break
        lo = np.where(need & ~at_edge,
                      np.maximum(ts - 2.0 * (ts - lo), traj.t0), lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def _lightcone_times(traj):
    # the knot times whose light cone fits in the data, as the
    # simulate CSV's residual column picks them
    reach = (traj.t - traj.t0) - np.sqrt(
        (traj.x - traj.position(traj.t0)) ** 2 + 1.0)
    return traj.t[(traj.t - 1.0 >= traj.t0) & (reach > 1e-6)]


@pytest.fixture(scope="module")
def filtered_uniform_run():
    return propagate_filtered(SeedHistory.uniform_motion(0.4), 10.0,
                              partial=True)


@pytest.mark.parametrize("run", ["exact_run", "filtered_uniform_run",
                                 "long_attempt"])
def test_vector_solver_bit_identical_to_fixed_bisection(run, request):
    traj = request.getfixturevalue(run)
    ts = _lightcone_times(traj)
    want = _fixed_bisection(traj, ts)
    got = solve_retarded_time_many(traj, ts)
    assert np.array_equal(got, want)
    if run == "long_attempt":
        # the rest kick's t_r ~ 0 element still moves at the last halving
        assert not np.array_equal(_fixed_bisection(traj, ts, 89), want)


def _smooth_traj(t_end, drift, wiggle, omega, kick, h, jitter, seed):
    # x = drift t + a sin(omega t) + k exp(-((t - t_k) / w)^2) on knots
    # of spacing h (jittered by up to a third of h), with exact beta and
    # beta_dot; |beta| <= 0.95 everywhere
    rng = np.random.default_rng(seed)
    span = 8.0
    n = int(span / h) + 1
    t = np.linspace(t_end - span, t_end, n)
    if jitter:
        t[1:-1] += rng.uniform(-h / 3, h / 3, n - 2)
    room = 0.95 - abs(drift)
    amp = wiggle * room / omega
    width = 0.3
    t_k = rng.uniform(t[0], t_end)
    height = kick * (1.0 - wiggle) * room * width / math.sqrt(2.0 / math.e)
    u = (t - t_k) / width
    bump = height * np.exp(-u * u)
    x = drift * t + amp * np.sin(omega * t) + bump
    beta = drift + amp * omega * np.cos(omega * t) - 2.0 * u / width * bump
    beta_dot = (-amp * omega ** 2 * np.sin(omega * t)
                + (4.0 * u * u - 2.0) / width ** 2 * bump)
    return Trajectory(t, x, beta, beta_dot)


def _random_lightcone_times(traj, seed):
    # random times and a sprinkle of knots whose light cone fits
    rng = np.random.default_rng(seed)
    ts = np.sort(np.concatenate([rng.uniform(traj.t0 + 1.0, traj.t1, 400),
                                 traj.t[::37]]))
    reach = (ts - traj.t0) - np.sqrt(
        (traj.position(ts) - traj.position(traj.t0)) ** 2 + 1.0)
    return ts[(ts - 1.0 >= traj.t0) & (reach > 1e-6)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(t_end=st.floats(-20.0, 1000.0), drift=st.floats(-0.9, 0.9),
       wiggle=st.floats(0.0, 1.0), omega=st.floats(0.2, 3.0),
       kick=st.floats(0.0, 1.0), h=st.sampled_from([2e-3, 1e-2, 5e-2]),
       jitter=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_solver_bit_identical_on_random_histories(t_end, drift, wiggle, omega,
                                                  kick, h, jitter, seed):
    traj = _smooth_traj(t_end, drift, wiggle, omega, kick, h, jitter, seed)
    ts = _random_lightcone_times(traj, seed)
    assert np.array_equal(solve_retarded_time_many(traj, ts),
                          _fixed_bisection(traj, ts))


def _kinked_traj():
    # drift 0.5 until t = 0, then -0.3: the velocity jumps at one knot
    t = np.linspace(-6.0, 6.0, 1201)
    beta = np.where(t < 0.0, 0.5, -0.3)
    return Trajectory(t, beta * t, beta, np.zeros_like(t))


def _window_share(traj, ts):
    # the share of times whose certified window (a, b) is narrower than
    # their bracket [lo, t - 1]
    x_t = traj.position(ts)
    lo = geometry._reach_back(traj, ts, x_t)
    a, b, _ = geometry._enclose(traj, lo, ts - 1.0, ts, x_t,
                                traj.velocity(ts))
    return np.mean((a > lo) | (b < ts - 1.0))


@pytest.mark.parametrize("case", ["rest", "kink", "long_attempt"])
def test_solver_edge_cases_bit_identical(case, request):
    # rest: every root sits at t - 1, the bracket's upper end, where the
    # window is clipped; kink: the light cones of t in [0, 3] cross a
    # velocity jump; long_attempt: the rest kick, whose t_r ~ 0 element
    # takes all 90 halvings and whose late roots, where |beta| nears 1,
    # need Newton steps past the first three to get their windows
    traj = {"rest": lambda: _uniform_traj(0.0),
            "kink": _kinked_traj,
            "long_attempt": lambda: request.getfixturevalue(case)}[case]()
    ts = _lightcone_times(traj)
    assert np.array_equal(solve_retarded_time_many(traj, ts),
                          _fixed_bisection(traj, ts))
    share = _window_share(traj, ts)
    assert share > 0.5
    if case == "long_attempt":
        assert share == 1.0


@pytest.mark.parametrize("run", ["exact_run", "long_attempt"])
def test_last_halving_counts(run, request):
    # the t = 1 element (t_r ~ -1.2e-12 on the exact run, ~ -4.5e-14 on
    # the filtered one) still moves at the 90th reference halving, so a
    # solve that stopped a halving short would come out wrong there
    traj = request.getfixturevalue(run)
    ts = _lightcone_times(traj)
    want = _fixed_bisection(traj, ts)
    late = _fixed_bisection(traj, ts, 89) != want
    ts, want = ts[late], want[late]
    assert ts.tolist() == [1.0]
    assert _window_share(traj, ts) == 1.0
    assert np.array_equal(solve_retarded_time_many(traj, ts), want)


def test_most_light_cone_times_take_the_jump():
    # the filtered beta = 0.3 march of `simulate --tend 100`: a slide into
    # the plain bisection would keep the bits and lose the speed
    traj = propagate_filtered(SeedHistory.uniform_motion(0.3), 100.0,
                              partial=True)
    assert _window_share(traj, _lightcone_times(traj)) >= 0.95


def test_rest_kick_early_times_have_windows(long_attempt):
    # the rest kick's times t < 1 have brackets whose midpoints round
    # from the first halving; the window decides them all the same
    ts = _lightcone_times(long_attempt)
    early = ts[ts < 1.0]
    assert early.size > 2000
    assert _window_share(long_attempt, early) == 1.0
    assert _window_share(long_attempt, ts) >= 0.74


def _count_calls(monkeypatch, name):
    # the element counts of each call to geometry.<name>, whose third
    # argument is an array of the times or points it works on
    sizes, func = [], getattr(geometry, name)

    def counted(first, second, third, *args):
        sizes.append(np.size(third))
        return func(first, second, third, *args)

    monkeypatch.setattr(geometry, name, counted)
    return sizes


def test_filtered_audit_work_per_time(monkeypatch):
    # the residual audit of the filtered beta = 0.3 `simulate --tend 100`
    # run: each time's first Newton step already fits its window, and
    # the solve evaluates g 11.225 times per time (measured), gated 10%
    # above
    traj = propagate_filtered(SeedHistory.uniform_motion(0.3), 100.0,
                              partial=True)
    ts = _lightcone_times(traj)
    gaps = _count_calls(monkeypatch, "_gap")
    steps = _count_calls(monkeypatch, "_newton_step")
    solve_retarded_time_many(traj, ts)
    assert ts.size == 101_952
    assert sum(steps) == ts.size
    assert sum(gaps) <= 1.1 * 11.225 * ts.size


def test_rest_kick_audit_encloses_each_time_once(long_attempt, monkeypatch):
    # every time reaches back before its Newton steps and is enclosed
    # once.  One step per time, plus those the late times where |beta|
    # nears 1 step on
    ts = _lightcone_times(long_attempt)
    enclosed = _count_calls(monkeypatch, "_enclose")
    steps = _count_calls(monkeypatch, "_newton_step")
    assert np.array_equal(solve_retarded_time_many(long_attempt, ts),
                          _fixed_bisection(long_attempt, ts))
    assert sum(enclosed) == ts.size == 11_676
    assert sum(steps) <= 33_871


def _grazing_times(traj):
    # times whose past light cone just reaches the history's first
    # point, reach in (-1e-12, 1e-9], with lo = t0: the root sits at lo,
    # and where the history starts at rest hi = t - 1 can lie below t0
    t0, x0 = traj.t0, float(traj.position(traj.t0))

    def reach(t):
        return (t - t0) - np.sqrt((traj.position(t) - x0) ** 2 + 1.0)

    t_star = brentq(lambda t: float(reach(t)), t0 + 1.0, t0 + 2.0,
                    xtol=1e-15, rtol=8.9e-16)
    d = np.logspace(-16.0, -8.5, 300)
    ts = t_star + np.concatenate([-d, [0.0], d])
    r = reach(ts)
    return ts[(r > -1e-12) & (r <= 1e-9) & (ts - 2.0 < t0)]


@pytest.mark.parametrize("case", ["rest", "uniform", "kink", "exact_run",
                                  "long_attempt", "smooth"])
def test_grazing_light_cones_bit_identical(case, request):
    traj = {"rest": lambda: _uniform_traj(0.0),
            "uniform": lambda: _uniform_traj(-0.6),
            "kink": _kinked_traj,
            "smooth": lambda: _smooth_traj(40.0, 0.5, 0.6, 1.7, 0.8, 1e-2,
                                           True, 3)}.get(
        case, lambda: request.getfixturevalue(case))()
    ts = _grazing_times(traj)
    assert ts.size > 400
    if case in ("rest", "exact_run", "long_attempt"):
        assert np.any(ts - 1.0 < traj.t0)
    assert np.array_equal(solve_retarded_time_many(traj, ts),
                          _fixed_bisection(traj, ts))


def test_geometry_validation():
    with pytest.raises(ValueError):
        RetardedGeometry(r=0.5, l=0.0, t_r=0.0)
    with pytest.raises(ValueError):
        RetardedGeometry(r=2.0, l=0.5, t_r=0.0)
    with pytest.raises(ValueError, match="below d"):
        RetardedGeometry(r=math.nan, l=math.nan, t_r=math.nan)
    with pytest.raises(ValueError, match="violated"):
        RetardedGeometry(r=2.0, l=math.nan, t_r=0.0)


def variational_delay(state, delta_ydot, delta_gamma):
    # oracle: the first-order delay response about uniform motion,
    # delta_r = gamma^4 beta delta_ydot + delta_gamma (units d)
    if abs(state.beta_dot) > 1e-12:
        raise ValueError("variational_delay is defined about uniform motion")
    g = lorentz_gamma(state.beta)
    return g ** 4 * state.beta * delta_ydot + delta_gamma


def test_variational_delay_linearization():
    # finite differences of the closed form about uniform motion
    beta, eps = 0.4, 1e-8
    base = KinematicState(beta=beta)
    bumped = KinematicState(beta=beta, beta_dot=eps)
    d_num = retarded_r_closed(bumped) - retarded_r_closed(base)
    d_lin = variational_delay(base, eps, 0.0)
    assert d_num == pytest.approx(d_lin, rel=1e-4)
    assert variational_delay(base, 0.0, 0.25) == 0.25
    with pytest.raises(ValueError):
        variational_delay(KinematicState(beta_dot=0.2), 0.1, 0.0)
