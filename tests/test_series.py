"""Exact-coefficient checks.

Everything here is rational arithmetic; the cross-checks go through an
independent route (sympy Maclaurin expansions, stdlib factorials)
rather than the package's own series engine.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zitterlab.series import (
    KinPoly,
    TruncatedSeries,
    _binomial_half,
    _linear_eom_expansion,
    _separation,
    _trim,
    d_series,
    eom_expansion,
    exp_remainder_coeffs,
    kin_unit_inverse,
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


@pytest.mark.parametrize("order", range(4, 12))
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
    for order in (5, 8):
        d = d_series(order, beta_order=3)
        r_back = r_of_d_series(order, beta_order=3)
        composed = d.compose(r_back)
        assert composed.order == order
        ident = TruncatedSeries.identity(order, composed.tag, beta_order=3)
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


# -- the full-order schemes the truncated ones must reproduce -----------

def _full_horner_compose(outer, inner):
    # Horner's rule with the accumulator kept at full order throughout
    g = inner.truncate_to(min(outer.order, inner.order))
    acc = g._like([])
    for k in range(outer.order, -1, -1):
        acc = acc * g
        acc = acc + g._like([outer.coeffs[k]])
    return acc


def _fixed_point_revert(f, new_tag):
    # g <- g - u^-1 (f(g) - w), each pass a full-order composition
    u_inv = kin_unit_inverse(f.coeffs[1], f.beta_order)
    w = f._like([KinPoly(), KinPoly.const(1)], tag=new_tag)
    g = w.scale(u_inv)
    for _ in range(2, f.order + 1):
        err = _full_horner_compose(f.retag(new_tag), g) - w
        g = g - err.scale(u_inv)
    return g


def _linear_ring_d_series(order, beta_order):
    # the separation series in the quotient by kinematic degree >= 2
    l = l_series(order, beta_order)
    return _separation(TruncatedSeries.build(l.coeffs, order, l.tag,
                                             beta_order, kin_order=1))


@pytest.mark.parametrize("beta_order", [1, 2, 3])
@pytest.mark.parametrize("order", range(2, 9))
def test_revert_matches_fixed_point_iteration(order, beta_order):
    d = d_series(order, beta_order)
    assert d.revert("d") == _fixed_point_revert(d, "d")


@pytest.mark.parametrize("beta_order", [0, 1])
@pytest.mark.parametrize("order", [4, 8, 11])
def test_revert_matches_fixed_point_in_linear_ring(order, beta_order):
    d = _linear_ring_d_series(order, beta_order)
    got = d.revert("d")
    assert got.kin_order == 1
    assert got == _fixed_point_revert(d, "d")


@pytest.mark.parametrize("beta_order", [None, 1, 2])
@pytest.mark.parametrize("outer_order, inner_order",
                         [(3, 7), (6, 6), (9, 5), (0, 4), (4, 1)])
def test_compose_matches_full_horner(outer_order, inner_order, beta_order):
    # an outer series of lower, equal and higher order than the inner one
    outer = l_series(outer_order, beta_order).retag("d")
    inner = d_series(inner_order, beta_order).retag("d")
    got = outer.compose(inner)
    assert got.order == min(outer_order, inner_order)
    assert got == _full_horner_compose(outer, inner)


@pytest.mark.parametrize("outer_order, inner_order", [(3, 8), (8, 8), (8, 3)])
def test_compose_matches_full_horner_in_linear_ring(outer_order, inner_order):
    outer = _linear_ring_d_series(outer_order, 0).retag("d")
    inner = _linear_ring_d_series(inner_order, 0).revert("d")
    assert outer.compose(inner) == _full_horner_compose(outer, inner)


def test_identity_suite_coefficient_products(monkeypatch):
    # a deterministic cost gate: the coefficient products KinPoly.mul
    # forms over the identity suite, 8,429 with full-order composition
    # and fixed-point reversion, 2,319 with the truncated schemes and
    # d_series(5, beta_order=1) built once
    products = [0]
    mul = KinPoly.mul

    def counted(a, b, *args, **kwargs):
        products[0] += len(a.terms) * len(b.terms)
        return mul(a, b, *args, **kwargs)

    monkeypatch.setattr(KinPoly, "mul", counted)
    assert all(ok for _, ok, _ in verify_identities())
    assert products[0] <= 2_550  # 2,319 plus 10%


# -- KinPoly ring laws against sympy ------------------------------------

_SLOTS = 4  # beta, a, a1, a2

# few exponents and coefficients, so that products collide and cancel
_keys = st.lists(st.integers(0, 2), max_size=_SLOTS).map(
    lambda e: _trim(tuple(e)))
_coeffs = st.fractions(min_value=-2, max_value=2,
                       max_denominator=2).filter(bool)
_polys = st.dictionaries(_keys, _coeffs, max_size=5).map(KinPoly)


def _sympy_terms(expr, symbols, beta_cap=None, kin_cap=None):
    """The expanded sympy polynomial as KinPoly terms, with the same caps
    applied to its monomials."""
    import sympy
    out = {}
    for monom, c in sympy.Poly(expr, *symbols).terms():
        if beta_cap is not None and monom[0] > beta_cap:
            continue
        if kin_cap is not None and sum(monom[1:]) > kin_cap:
            continue
        if c:
            out[_trim(monom)] = Fraction(int(c.p), int(c.q))
    return out


def _to_sympy(poly, symbols):
    import sympy
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(s ** p for s, p in zip(symbols, e)))
                       for e, c in poly.terms.items()))


def _well_formed(poly):
    return all(c and (not e or e[-1]) for e, c in poly.terms.items())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(p=_polys, q=_polys, beta_cap=st.sampled_from([None, 0, 1, 2, 3]),
       kin_cap=st.sampled_from([None, 0, 1, 2]))
def test_kinpoly_ring_laws_against_sympy(p, q, beta_cap, kin_cap):
    import sympy
    symbols = sympy.symbols(f"x0:{_SLOTS}")
    sp, sq = _to_sympy(p, symbols), _to_sympy(q, symbols)
    for got, want in ((p.mul(q), _sympy_terms(sp * sq, symbols)),
                      (p.mul(q, beta_cap, kin_cap),
                       _sympy_terms(sp * sq, symbols, beta_cap, kin_cap)),
                      (p + q, _sympy_terms(sp + sq, symbols)),
                      (p - q, _sympy_terms(sp - sq, symbols))):
        assert _well_formed(got)
        assert got.terms == want
    assert (p - p).is_zero()
    assert p.mul(q, beta_cap, kin_cap) == q.mul(p, beta_cap, kin_cap)
