import math

import numpy as np
import pytest
from scipy.optimize import brentq

from zitterlab.geometry import (
    HistoryTooShortError,
    RetardedGeometry,
    potential_denominator,
    retarded_l_closed,
    retarded_r_closed,
    solve_retarded_time,
    solve_retarded_time_many,
    variational_delay,
    y_parameter,
)
from zitterlab.model import KinematicState, lorentz_gamma
from zitterlab.trajectory import Trajectory


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


def test_closed_forms_require_on_shell_pledge():
    state = KinematicState(beta=0.2, beta_dot=0.1)
    with pytest.raises(ValueError):
        retarded_r_closed(state, on_shell=False)
    with pytest.raises(ValueError):
        potential_denominator(state, on_shell=False)


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


def test_geometry_validation():
    with pytest.raises(ValueError):
        RetardedGeometry(r=0.5, l=0.0, t_r=0.0)
    with pytest.raises(ValueError):
        RetardedGeometry(r=2.0, l=0.5, t_r=0.0)


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
