import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

from zitterlab.geometry import delay_closed
from zitterlab.model import KinematicState, PhysicalConstants, lorentz_gamma
from zitterlab.potential import (
    PotentialSample,
    decompose,
    duffing_force,
    duffing_potential,
    duffing_stationary_points,
    energy_scale_joules,
    q_coeff,
    quantum_potential,
    sample,
    self_potential_closed,
    self_potential_partial_sums,
)

Q_FROZEN = (Fraction(1, 2), Fraction(3, 8), Fraction(5, 16),
            Fraction(35, 128), Fraction(63, 256))


def test_q_sequence_frozen():
    for n, want in enumerate(Q_FROZEN, start=1):
        assert q_coeff(n) == want


def test_q_recurrence():
    # q_n / q_{n-1} = (2n - 1) / (2n)
    for n in range(2, 13):
        assert q_coeff(n) == q_coeff(n - 1) * Fraction(2 * n - 1, 2 * n)
    with pytest.raises(ValueError):
        q_coeff(0)


def test_q_quadrature_cross_check():
    # q_n is the circular mean of cos^{2n}; Simpson on a fine periodic
    # grid is an independent route to the same numbers
    theta = np.linspace(0.0, 2.0 * np.pi, 8193)
    for n in range(1, 9):
        integral = simpson(np.cos(theta) ** (2 * n), x=theta)
        assert integral / (2.0 * np.pi) == pytest.approx(float(q_coeff(n)),
                                                         abs=1e-10)


def _states(n=1000, seed=20260814):
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-0.95, 0.95, n)
    y = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), n))
    gamma = 1.0 / np.sqrt(1.0 - beta * beta)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return [KinematicState(beta=b, beta_dot=s * math.sqrt(yy) / g ** 3)
            for b, yy, g, s in zip(beta, y, gamma, sign)]


def test_energy_decomposition_sweep():
    for state in _states():
        p = sample(state)
        assert abs(p.U - (p.gamma + p.Q)) < 1e-12 * max(1.0, p.gamma)


# U, Q, gamma, y of the per-state code before the closed forms took
# arrays, as repr() printed them
PINNED_SAMPLES = {
    (0.3, 0.2): (1.021523819882509, -0.026761016839409263,
                 1.0482848367219182, 0.05308059890839746),
    (-0.7, -1.3): (0.37776212869685794, -1.0225179553311519,
                   1.4002800840280099, 12.740197963076046),
    (0.0, 0.0): (1.0, -0.0, 1.0, 0.0),
    (0.95, 1e-3): (3.2008368304453767, -0.0017262456563597649,
                   3.2025630761017414, 0.0010789123215158693),
    (-0.2, 2.5): (0.3594034809282973, -0.6612172452313602,
                  1.0206207261596576, 7.064254195601855),
}


@pytest.mark.parametrize("beta, beta_dot", PINNED_SAMPLES)
def test_float_potential_is_pinned(beta, beta_dot):
    state = KinematicState(beta=beta, beta_dot=beta_dot)
    want = PINNED_SAMPLES[beta, beta_dot]
    p = sample(state)
    got = (p.U, p.Q, p.gamma, p.y)
    assert [type(v) for v in got] == [float] * 4
    assert got == want
    assert math.copysign(1.0, p.Q) == math.copysign(1.0, want[1])
    assert self_potential_closed(state) == want[0]
    assert quantum_potential(state) == want[1]
    assert decompose(beta, beta_dot) == p


def test_array_potential_matches_float_calls():
    # within 2 ulp, an ulp being eps times U's condition scale (that of
    # its denominator r - l beta) or, for Q, eps times gamma
    rng = np.random.default_rng(11)
    beta = rng.uniform(-0.999, 0.999, 3000)
    beta_dot = rng.normal(0.0, 3.0, 3000)
    got = decompose(beta, beta_dot)
    want = np.array([[getattr(decompose(float(b), float(bd)), f)
                      for f in ("U", "Q", "gamma", "y")]
                     for b, bd in zip(beta, beta_dot)]).T
    U, Q, g, y = want
    root = np.sqrt(1.0 + y)
    g4 = g ** 4
    scale_den = (g * root + np.abs(g4 * beta * beta_dot)
                 + np.abs(beta) * (np.abs(g * beta * root)
                                   + np.abs(g4 * beta_dot)))
    eps = np.finfo(float).eps
    assert np.all(np.abs(got.U - U) <= 2.0 * eps * U * U * scale_den)
    assert np.all(np.abs(got.Q - Q) <= 2.0 * eps * g)
    assert np.array_equal(got.gamma, g)
    assert np.all(np.abs(got.y - y) <= 2.0 * eps * y)


def test_array_potential_keeps_guards():
    with pytest.raises(ValueError, match=r"\|beta\| must be < 1"):
        decompose(np.array([0.3, -1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="U must be positive"):
        decompose(np.array([0.3, 0.3]), np.array([0.1, np.nan]))
    ok = np.ones(2)
    with pytest.raises(ValueError, match="Q must be <= 0"):
        PotentialSample(U=ok, Q=np.array([0.0, 1e-6]), gamma=ok, y=ok)
    with pytest.raises(ValueError, match="y must be >= 0"):
        PotentialSample(U=ok, Q=-ok, gamma=ok, y=np.array([1.0, -1e-9]))


@pytest.mark.parametrize("fields, message", [
    ({"U": float("nan")}, "U must be positive, got nan"),
    ({"U": 0.0}, "U must be positive, got 0.0"),
    ({"Q": 1e-6}, "Q must be <= 0, got 1e-06"),
    ({"y": -1e-9}, "y must be >= 0, got -1e-09"),
    ({"Q": float("nan")}, "Q must be <= 0, got nan"),
    ({"y": float("nan")}, "y must be >= 0, got nan"),
])
def test_float_potential_keeps_guards(fields, message):
    # floats take plain comparisons, arrays numpy's, with the same
    # messages
    good = {"U": 1.0, "Q": 0.0, "gamma": 1.0, "y": 0.0}
    with pytest.raises(ValueError) as exc:
        PotentialSample(**{**good, **fields})
    assert str(exc.value) == message


def test_closed_form_values():
    # U = gamma / sqrt(1 + y), typed out independently
    state = KinematicState(beta=0.3, beta_dot=0.11)
    g = lorentz_gamma(0.3)
    y = g ** 6 * 0.11 ** 2
    assert self_potential_closed(state) == pytest.approx(
        g / math.sqrt(1.0 + y), rel=1e-14)
    assert quantum_potential(state) == pytest.approx(
        -g * (1.0 - 1.0 / math.sqrt(1.0 + y)), rel=1e-14)


def test_rest_values():
    assert self_potential_closed(KinematicState()) == 1.0
    assert quantum_potential(KinematicState()) == 0.0
    assert quantum_potential(KinematicState(beta=0.6)) == 0.0


def test_series_converges_to_closed_form():
    # y = 0.5 sits inside the convergence disc
    g = lorentz_gamma(0.3)
    state = KinematicState(beta=0.3, beta_dot=math.sqrt(0.5) / g ** 3)
    closed = self_potential_closed(state)
    assert abs(self_potential_partial_sums(state, 30)[-1] - closed) < 1e-8
    sums = self_potential_partial_sums(state, 30)
    assert len(sums) == 30
    errs = [abs(s - closed) for s in sums]
    assert errs[-1] < errs[0]


@pytest.mark.parametrize("beta, beta_dot", [(0.3, 0.2), (0.0, 0.9),
                                            (0.6, -0.05)])
def test_partial_sums_match_the_q_coeff_route(beta, beta_dot):
    # the carried q_n give q_coeff(n)'s floats, so the same sums, bit for bit
    state = KinematicState(beta=beta, beta_dot=beta_dot)
    g, y = delay_closed(beta, beta_dot)[:2]
    acc, want = 1.0, []
    for n in range(1, 301):
        acc += float(q_coeff(n)) * (-y) ** n
        want.append(g * acc)
    assert self_potential_partial_sums(state, 300) == want


def test_series_warns_outside_disc():
    g = lorentz_gamma(0.0)
    state = KinematicState(beta_dot=math.sqrt(1.5) / g ** 3)
    with pytest.warns(RuntimeWarning, match="diverges"):
        self_potential_partial_sums(state, 5)


def test_partial_sums_validate_input():
    with pytest.raises(ValueError):
        self_potential_partial_sums(KinematicState(), 0)


def test_duffing_profile():
    lo, mid, hi = duffing_stationary_points()
    assert mid == 0.0
    assert hi == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert lo == -hi
    for x in (lo, mid, hi):
        assert abs(duffing_force(x)) < 1e-12
    # origin is a local maximum of the conservative profile
    assert duffing_potential(0.0) == 0.0
    assert duffing_potential(1e-3) < 0.0
    assert duffing_potential(-1e-3) < 0.0
    # wells are minima: curvature positive there
    h = 1e-4
    curv = (duffing_potential(hi + h) - 2 * duffing_potential(hi)
            + duffing_potential(hi - h)) / h ** 2
    assert curv > 0.0


def test_duffing_force_is_minus_gradient():
    h = 1e-6
    for x in (-1.1, -0.3, 0.2, 0.9):
        grad = (duffing_potential(x + h) - duffing_potential(x - h)) / (2 * h)
        assert duffing_force(x) == pytest.approx(-grad, abs=1e-8)


def test_energy_scale():
    c = PhysicalConstants()
    assert energy_scale_joules(c) == pytest.approx(8.187105776823886e-14,
                                                   rel=1e-12)


def series_prefactor_ratio():
    # oracle: the y-series prefactor hbar^2 alpha^2 / (64 m r_eff^2) over
    # the rest energy m c^2, with m = hbar alpha / (4 d c) and
    # r_eff = d / 2, by exponent bookkeeping over (hbar, alpha, c, d)
    def mul(a, b, power=1):
        return (a[0] * b[0] ** power,
                tuple(x + power * y for x, y in zip(a[1], b[1])))

    def num(q):
        return (Fraction(q), (0, 0, 0, 0))

    hbar = (Fraction(1), (1, 0, 0, 0))
    alpha = (Fraction(1), (0, 1, 0, 0))
    c = (Fraction(1), (0, 0, 1, 0))
    d = (Fraction(1), (0, 0, 0, 1))
    m = mul(mul(mul(num(Fraction(1, 4)), hbar), alpha), mul(c, d), power=-1)
    r_eff = mul(num(Fraction(1, 2)), d)
    prefactor = mul(mul(mul(num(1), hbar, 2), alpha, 2),
                    mul(mul(num(64), m), r_eff, 2), power=-1)
    ratio = mul(prefactor, mul(m, c, 2), power=-1)
    if any(e != 0 for e in ratio[1]):
        raise ArithmeticError(f"symbols did not cancel: {ratio[1]}")
    return ratio[0]


def test_series_prefactor_cancels_exactly():
    # hbar^2 alpha^2 / (64 m r_eff^2) collapses to exactly one rest
    # energy once m and r_eff are written in terms of d
    assert series_prefactor_ratio() == Fraction(1)
