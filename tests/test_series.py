"""Exact-coefficient checks.

Everything here is rational arithmetic; the cross-checks go through an
independent route (sympy Maclaurin expansions, stdlib factorials)
rather than the package's own series engine.
"""

import math
from fractions import Fraction

import pytest

from zitterlab.series import (
    KinPoly,
    TruncatedSeries,
    _binomial_half,
    _linear_eom_expansion,
    d_series,
    eom_expansion,
    exp_remainder_coeffs,
    l_series,
    linear_chain_coeffs,
    r_of_d_series,
    self_force_series,
    verify_identities,
)


def _sqrt_one_minus_sq(order):
    """sqrt(1 - z^2) through z^order from the binomial coefficients
    the separation series multiplies by."""
    return [_binomial_half(k // 2) if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)]


def test_all_identities_pass():
    results = verify_identities()
    assert len(results) >= 10
    bad = [(cid, detail) for cid, ok, detail in results if not ok]
    assert bad == []


def test_sqrt_series_against_sympy():
    import sympy
    z = sympy.Symbol("z")
    expansion = sympy.series(sympy.sqrt(1 - z ** 2), z, 0, 9).removeO()
    ours = _sqrt_one_minus_sq(8)
    for k, got in enumerate(ours):
        want = Fraction(str(expansion.coeff(z, k)))
        assert got == want, f"order {k}: {got} != {want}"


def test_exp_remainder_against_sympy():
    import sympy
    mu = sympy.Symbol("mu")
    expansion = sympy.series(sympy.exp(mu) - 1 - mu - mu ** 2,
                             mu, 0, 17).removeO()
    ours = exp_remainder_coeffs(14)
    assert len(ours) == 17
    for k, got in enumerate(ours):
        want = Fraction(str(expansion.coeff(mu, k)))
        assert got == want


@pytest.mark.parametrize("n_max", [8, 14])
def test_linear_chain_coefficients(n_max):
    # leading antidamping weight, then the factorial tail
    coeffs = linear_chain_coeffs(n_max)
    assert len(coeffs) == n_max + 1
    assert coeffs[0] == Fraction(-1, 2)
    for n in range(1, n_max + 1):
        assert coeffs[n] == Fraction(1, math.factorial(n + 2))


def test_characteristic_matches_chain():
    # e^(mu t) maps the n-th acceleration derivative to mu^(n+2), so the
    # chain's characteristic polynomial is the chain shifted up two slots
    characteristic = [Fraction(0), Fraction(0)] + linear_chain_coeffs(14)
    assert characteristic == exp_remainder_coeffs(14)


@pytest.mark.parametrize("order", range(4, 9))
def test_linear_quotient_matches_full_ring(order):
    # dropping kinematic degree >= 2 is a ring homomorphism, so the linear
    # part of every coefficient must be the full ring's, Fraction for Fraction
    full = eom_expansion(order, 0)
    capped = _linear_eom_expansion(order)
    assert capped.order == full.order
    for k, (f, c) in enumerate(zip(full.coeffs, capped.coeffs)):
        assert c.linear_kinematic_part() == f.linear_kinematic_part(), f"d^{k - 1}"


def test_self_force_terms_frozen():
    exp = self_force_series()
    assert exp.mass_term == Fraction(-1, 2)
    assert exp.a2v_term == Fraction(1, 2)
    assert exp.jerk_term == Fraction(1, 6)
    assert exp.a2a_term == Fraction(5, 16)
    assert exp.snap_term == Fraction(1, 24)


def _evaluate(poly, beta=0.0, derivs=()):
    """The KinPoly's value at beta and the derivatives (a, a1, ...),
    every variable not given taken as 0."""
    vals = (beta,) + tuple(derivs)
    total = 0.0
    for e, c in poly.terms.items():
        term = float(c)
        for slot, p in enumerate(e):
            if p:
                term *= (vals[slot] if slot < len(vals) else 0.0) ** p
        total += term
    return total


def test_advance_series_numeric_fixed_point():
    # l(r) with frozen kinematics must satisfy l = beta*r + a r^2/2 + ...
    ser = l_series(4)
    val = _evaluate(ser.coefficient(1), beta=0.25)
    assert val == pytest.approx(0.25, rel=0, abs=0)
    half_a = _evaluate(ser.coefficient(2), derivs=(1.0,))
    assert half_a == pytest.approx(0.5, rel=0, abs=0)


def test_reversion_roundtrip_exact():
    d = d_series(5, beta_order=3)
    r_back = r_of_d_series(5, beta_order=3)
    composed = d.compose(r_back)
    ident = TruncatedSeries.identity(composed.order, composed.tag,
                                     beta_order=3)
    assert (composed - ident).is_zero()


def test_sqrt_square_roundtrip():
    s = TruncatedSeries.build(map(KinPoly.const, _sqrt_one_minus_sq(8)), 8,
                              "z")
    sq = s * s
    # (sqrt(1-z^2))^2 = 1 - z^2 exactly within the truncation order
    assert sq.coefficient(0).constant_part() == 1
    assert sq.coefficient(2).constant_part() == -1
    for k in (1, 3, 4, 5, 6, 7, 8):
        assert sq.coefficient(k).is_zero()


def test_series_rejects_mixed_tags():
    a = TruncatedSeries.identity(3, "p")
    b = TruncatedSeries.identity(3, "q")
    with pytest.raises(ValueError):
        a + b
