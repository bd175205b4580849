"""The numpy cubic interpolant against scipy's, bit for bit.

Trajectory forms its cubics with _hermite_cubics where scipy's
CubicHermiteSpline once stood, and reads them on the intervals that
_interval gives.  The marchers take PchipInterpolator's values at their
grid rows through pchip_at, which shares both and builds no spline.
Every march output depends on those values to the last bit, so the
oracle is exact equality, signed zeros included.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from zitterlab.trajectory import (Trajectory, _hermite_cubics, _interval,
                                  cubic_slope, cubic_value, pchip_at)


def _knots():
    rng = np.random.default_rng(11)
    x = np.cumsum(rng.uniform(0.05, 1.5, 40)) - 10.0   # non-uniform
    y = np.sin(1.3 * x) + 0.2 * rng.normal(size=x.size)  # sign changes
    y[5:9] = 0.7                                         # flat run
    y[20:23] = -0.0                                      # flat at zero
    return x, y, rng.normal(size=x.size)


# Small cases that reach each branch of the three-point end formula:
# kept, clipped to zero (sign flip), and clipped to 3 m0 (steep turn).
END_CASES = [
    (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0])),
    (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 6.0])),
    (np.array([0.0, 1.0, 2.0, 2.5]), np.array([0.0, 1.0, -9.0, -9.5])),
    (np.array([0.0, 0.3, 2.0, 2.1]), np.array([2.0, -1.0, -1.0, 4.0])),
]


def _queries(x):
    rng = np.random.default_rng(5)
    span = x[-1] - x[0]
    return np.concatenate([
        x,                                         # at the knots
        0.5 * (x[1:] + x[:-1]),                    # between knots
        rng.uniform(x[0], x[-1], 300),
        [x[0] - 0.5 * span, x[0] - 1e-9,           # beyond both ends
         x[-1] + 1e-9, x[-1] + 0.5 * span],
    ])


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))


# Every power-sum term is -0.0 at the first knot, where the reference
# sum, started from +0.0, gives +0.0.
SIGNED_ZERO_CASE = (np.array([0.0, 1.0, 2.0]), np.array([-0.0, -1.0, -1.5]),
                    np.array([-0.0, -2.5, -0.5]))


@pytest.mark.parametrize("case", range(2))
def test_hermite_matches_scipy_bitwise(case):
    x, y, dydx = _knots() if case == 0 else SIGNED_ZERO_CASE
    q = _queries(x)
    dx = np.diff(x)
    c = np.stack(_hermite_cubics(dx, np.diff(y) / dx, dydx[:-1], dydx[1:],
                                 y[:-1]))
    i = _interval(x, q)
    ref = CubicHermiteSpline(x, y, dydx)
    assert _same_bits(c, ref.c)
    assert _same_bits(cubic_value(c[:, i], x[i], q), ref(q))
    assert _same_bits(cubic_slope(c[:, i], x[i], q), ref.derivative()(q))
    # the interval rule is searchsorted's, clipped to the end intervals,
    # NaN included
    q = np.append(q, np.nan)
    assert np.array_equal(_interval(x, q), np.clip(
        np.searchsorted(x, q, side="right") - 1, 0, x.size - 2))


def test_trajectory_matches_scipy_bitwise():
    t, x, _ = _knots()
    rng = np.random.default_rng(32)
    beta = rng.uniform(-0.9, 0.9, t.size)
    beta_dot = rng.normal(size=t.size)
    q = _queries(t)
    q = q[(q >= t[0]) & (q <= t[-1])]
    traj = Trajectory(t, x, beta, beta_dot)
    position = CubicHermiteSpline(t, x, beta)
    velocity = CubicHermiteSpline(t, beta, beta_dot)
    assert _same_bits(traj.position(q), position(q))
    assert _same_bits(traj.velocity(q), velocity(q))
    assert _same_bits(traj.acceleration(q), velocity.derivative()(q))


@pytest.mark.parametrize("case", range(1 + len(END_CASES)))
def test_pchip_matches_scipy_bitwise(case):
    x, y = _knots()[:2] if case == 0 else END_CASES[case - 1]
    q = np.sort(_queries(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        ours = pchip_at(x, y, q)
    assert _same_bits(ours, PchipInterpolator(x, y)(q))


def _grid_case(rng):
    """Random strictly increasing knots with flat runs, sign changes and
    repeated values, and increasing rows on a uniform grid that starts
    and ends beyond the knots and holds some knots exactly."""
    n = int(rng.integers(3, 60))
    x = np.cumsum(rng.uniform(1e-3, 2.0, n)) - rng.uniform(0.0, 20.0)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-9.0, 2.0)
    for _ in range(int(rng.integers(0, 4))):    # flat secants, zeros
        k = int(rng.integers(0, n - 1))
        y[k:k + int(rng.integers(2, 5))] = rng.choice([0.0, -0.0, y[k]])
    span = x[-1] - x[0]
    t = np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span,
                    int(rng.integers(1, 200)))
    on = rng.choice(n, size=min(n, t.size), replace=False)
    t[rng.choice(t.size, size=on.size, replace=False)] = x[on]
    return x, y, np.sort(t)


def test_pchip_at_matches_the_spline_bitwise():
    # the scipy test's knots and end cases, then 300 random ones
    rng = np.random.default_rng(28)
    cases = [(x, y, np.sort(_queries(x)))
             for x, y in [_knots()[:2], *END_CASES]]
    cases += [_grid_case(rng) for _ in range(300)]
    for x, y, t in cases:
        with np.errstate(divide="ignore", invalid="ignore"):
            got = pchip_at(x, y, t)
        assert _same_bits(got, PchipInterpolator(x, y)(t))
