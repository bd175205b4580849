"""Exact truncated power series with kinematic polynomial coefficients.

The retardation expansions all live in one commutative ring: truncated
power series in a formal expansion variable (the retarded distance r, or
the separation d after reversion) whose coefficients are multivariate
polynomials over Q in the kinematic quantities

    beta,  a,  a1 = da/dt,  a2 = d^2a/dt^2, ...

in c = d = 1 units.  Coefficients are fractions.Fraction throughout, so
every identity check below is exact, never a float comparison.

Three truncation axes exist and are tracked separately:

* order  -- powers of the expansion variable above `order` are dropped;
* beta_order -- optional quotient by beta^(k+1).  First order in beta
  (k = 1) is the regime in which the advance/separation series invert
  cleanly; k = 0 isolates the linearization about rest;
* kin_order -- optional quotient by the monomials of total degree > k in
  the kinematic variables {a, a1, a2, ...}; beta powers are untouched.
  k = 1 keeps exactly the part linear in the acceleration derivatives,
  which is all the linearized chain about rest reads.

Both quotients are by monomial ideals, so reducing coefficients is a ring
homomorphism.  Sums, products, inverses, composition and reversion are
all built from ring operations, so they commute with the reduction:
every coefficient computed in a quotient ring is *exactly* the image of
the full-ring coefficient, never an approximation of it.  The cap only
skips products whose image is zero anyway.

The separation series sqrt(r^2 - l^2) = r sqrt(1 - z^2), z = l/r, takes
no series square root: the exact binomial coefficients of sqrt(1 - w^2)
multiply powers of z^2.  z has constant term beta, so that binomial
series must itself be truncated.  The "full beta" convention keeps it
through z^4 (coefficients 1, -1/2, -1/8), which is the truncation under
which the quoted full-beta separation coefficients hold.  In a
beta-truncated ring the z-order is raised automatically until the
Pythagoras closure l^2 + d^2 = r^2 is exact to the working order.

Composition and reversion compute only what reaches the result.  An
inner series g has no constant term, so in Horner's rule for f(g) the
accumulator that g will still multiply k times needs no coefficient
above order n - k.  Reversion fixes coefficient k of the inverse at
pass k from one composition at order k.  Both leave out only products
whose terms all fall above the truncation order, and the arithmetic is
exact, so every coefficient is the Fraction the full-order schemes give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add

Q = Fraction

# Exponent tuples index the variables as: slot 0 -> beta, slot j >= 1 ->
# the (j-1)-th time derivative of the acceleration (a, a1, a2, ...).
# A KinPoly keeps two invariants: every key is trimmed (no trailing zero
# exponent, so each monomial has one key) and every coefficient is
# nonzero.  Ring operations keep both without re-checking keys: the sum
# of two trimmed keys is trimmed, and a product of nonzero Fractions is
# nonzero.

def _var_name(slot: int) -> str:
    if slot == 0:
        return "beta"
    if slot == 1:
        return "a"
    return f"a{slot - 1}"


def _kin_degree(exps: tuple[int, ...]) -> int:
    """Total degree of a monomial in the kinematic variables a, a1, ..."""
    return sum(exps[1:])


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    n = len(exps)
    while n and exps[n - 1] == 0:
        n -= 1
    return exps[:n]


def _accumulate(terms: dict[tuple[int, ...], Fraction], e: tuple[int, ...],
                c: Fraction) -> None:
    """terms[e] += c for a nonzero c, dropping the term if it cancels."""
    s = terms.get(e)
    if s is None:
        terms[e] = c
        return
    s += c
    if s:
        terms[e] = s
    else:
        del terms[e]


class KinPoly:
    """Multivariate polynomial over Q in beta and acceleration derivatives."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.terms = {} if terms is None else terms

    # -- constructors ------------------------------------------------
    @classmethod
    def const(cls, q) -> "KinPoly":
        q = Q(q)
        return cls({(): q} if q else {})

    @classmethod
    def beta(cls) -> "KinPoly":
        return cls({(1,): Q(1)})

    @classmethod
    def deriv(cls, j: int) -> "KinPoly":
        """The j-th time derivative of the acceleration (j = 0 is a itself)."""
        exps = (0,) * (j + 1) + (1,)
        return cls({exps: Q(1)})

    # -- ring operations ---------------------------------------------
    def __add__(self, other: "KinPoly") -> "KinPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c)
        return KinPoly(out)

    def __neg__(self):
        return KinPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "KinPoly") -> "KinPoly":
        return self + (-other)

    def __rsub__(self, other):
        return KinPoly.const(other) + (-self)

    def mul(self, other: "KinPoly", beta_cap: int | None = None,
            kin_cap: int | None = None) -> "KinPoly":
        out: dict[tuple[int, ...], Fraction] = {}
        right = [(e, c, e[0] if e else 0, _kin_degree(e))
                 for e, c in other.terms.items()]
        for e1, c1 in self.terms.items():
            b1 = e1[0] if e1 else 0
            k1 = _kin_degree(e1)
            n1 = len(e1)
            for e2, c2, b2, k2 in right:
                if beta_cap is not None and b1 + b2 > beta_cap:
                    continue
                if kin_cap is not None and k1 + k2 > kin_cap:
                    continue
                # the sum of two trimmed keys is trimmed: the longer one's
                # last exponent is positive, and so is the sum's
                e = tuple(map(add, e1, e2))
                e += e1[len(e2):] if n1 > len(e2) else e2[n1:]
                _accumulate(out, e, c1 * c2)
        return KinPoly(out)

    def __mul__(self, other):
        if isinstance(other, KinPoly):
            return self.mul(other)
        return KinPoly({e: c * Q(other) for e, c in self.terms.items()}) if other else KinPoly()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KinPoly.const(other)
        return isinstance(other, KinPoly) and self.terms == other.terms

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, beta_cap: int | None = None, kin_cap: int | None = None) -> "KinPoly":
        """Image in the quotient by beta^(beta_cap+1) and kinematic degree > kin_cap."""
        return KinPoly({e: c for e, c in self.terms.items()
                        if (beta_cap is None or (e[0] if e else 0) <= beta_cap)
                        and (kin_cap is None or _kin_degree(e) <= kin_cap)})

    def constant_part(self) -> Fraction:
        return self.terms.get((), Q(0))

    def linear_kinematic_part(self) -> "KinPoly":
        """Terms of total degree exactly 1 in {a, a1, ...} and 0 in beta."""
        out = {}
        for e, c in self.terms.items():
            if (e[0] if e else 0) == 0 and _kin_degree(e) == 1:
                out[e] = c
        return KinPoly(out)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(_trim(tuple(exps)), Q(0))

    def is_pure_beta_plus_const(self) -> bool:
        return all(_kin_degree(e) == 0 for e in self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{_var_name(i)}^{p}" if p > 1 else _var_name(i)
                            for i, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def kin_unit_inverse(p: KinPoly, beta_cap: int | None) -> KinPoly:
    """Inverse of c0*(1 + nilpotent-in-beta) in the beta-quotient ring."""
    c0 = p.constant_part()
    if c0 == 0:
        raise ValueError("not a unit: zero constant part")
    rest = p - KinPoly.const(c0)
    if rest.is_zero():
        return KinPoly.const(1 / c0)
    if beta_cap is None or not rest.is_pure_beta_plus_const():
        raise ValueError("not a unit: non-constant part is not nilpotent in this ring")
    n = rest * (1 / c0)
    # geometric series 1 - n + n^2 - ... terminates: every monomial of n
    # carries beta, so n^k dies once k exceeds the beta cap
    acc = KinPoly.const(1)
    power = KinPoly.const(1)
    sign = -1
    for _ in range(beta_cap + 1):
        power = power.mul(n, beta_cap=beta_cap)
        if power.is_zero():
            break
        acc = acc + (power * sign if sign < 0 else power)
        sign = -sign
    return acc * (1 / c0)


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in `tag` truncated above `order`, KinPoly coefficients.

    `beta_order` and `kin_order` name the coefficient quotient ring (see
    the module notes); every ring operation stays inside it.
    """

    coeffs: tuple[KinPoly, ...]
    order: int
    tag: str
    beta_order: int | None = None
    kin_order: int | None = None

    @classmethod
    def build(cls, coeffs, order: int, tag: str, beta_order: int | None = None,
              kin_order: int | None = None) -> "TruncatedSeries":
        cs = list(coeffs)[: order + 1]
        cs += [KinPoly()] * (order + 1 - len(cs))
        if beta_order is not None or kin_order is not None:
            cs = [c.truncate(beta_order, kin_order) for c in cs]
        return cls(tuple(cs), order, tag, beta_order, kin_order)

    @classmethod
    def identity(cls, order: int, tag: str, beta_order: int | None = None) -> "TruncatedSeries":
        return cls.build([KinPoly(), KinPoly.const(1)], order, tag, beta_order)

    def _like(self, coeffs, tag: str | None = None) -> "TruncatedSeries":
        """`coeffs` as a series of this order in this quotient ring."""
        return TruncatedSeries.build(coeffs, self.order, tag or self.tag,
                                     self.beta_order, self.kin_order)

    def _cmul(self, a: KinPoly, b: KinPoly) -> KinPoly:
        """Coefficient product in this series' quotient ring."""
        return a.mul(b, self.beta_order, self.kin_order)

    # -- ring ---------------------------------------------------------
    def _check(self, other: "TruncatedSeries"):
        mine = (self.tag, self.order, self.beta_order, self.kin_order)
        theirs = (other.tag, other.order, other.beta_order, other.kin_order)
        if mine != theirs:
            raise ValueError(f"series mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        self._check(other)
        return replace(self, coeffs=tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return replace(self, coeffs=tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, factor) -> "TruncatedSeries":
        if not isinstance(factor, KinPoly):
            factor = KinPoly.const(factor)
        return replace(self, coeffs=tuple(self._cmul(c, factor) for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        out = [KinPoly() for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + self._cmul(a, b)
        return replace(self, coeffs=tuple(out))

    def coefficient(self, k: int) -> KinPoly:
        return self.coeffs[k]

    def truncate_to(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return replace(self, coeffs=self.coeffs[: order + 1], order=order)

    def shift_up(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by tag^k (keeps order, drops overflowing coefficients)."""
        cs = (KinPoly(),) * k + self.coeffs[: self.order + 1 - k]
        return replace(self, coeffs=cs)

    def shift_down(self, k: int = 1) -> "TruncatedSeries":
        """Divide by tag^k; the low k coefficients must vanish."""
        for i in range(k):
            if not self.coeffs[i].is_zero():
                raise ValueError(f"cannot divide by {self.tag}^{k}: coefficient {i} is nonzero")
        return replace(self, coeffs=self.coeffs[k:], order=self.order - k)

    def retag(self, tag: str) -> "TruncatedSeries":
        return replace(self, tag=tag)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- analytic-style operations -------------------------------------
    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be a unit."""
        inv0 = kin_unit_inverse(self.coeffs[0], self.beta_order)
        out = [inv0] + [KinPoly() for _ in range(self.order)]
        for n in range(1, self.order + 1):
            s = KinPoly()
            for k in range(1, n + 1):
                s = s + self._cmul(self.coeffs[k], out[n - k])
            out[n] = -self._cmul(s, inv0)
        return replace(self, coeffs=tuple(out))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(w)) to order n = min(self.order, inner.order);
        inner must have zero constant term.

        Horner's rule, acc <- acc * g + f_k for k = n down to 0, with the
        accumulator cut to order n - k at step k: it is multiplied by g
        k more times, and g has no constant term, so its higher
        coefficients cannot reach order n.  For the same reason an f_k
        with k > n adds nothing.  The products left out are exactly the
        ones whose every term lands above order n, so each coefficient
        is the same Fraction that full-order Horner gives.
        """
        if (inner.beta_order, inner.kin_order) != (self.beta_order, self.kin_order):
            raise ValueError("composition across different quotient rings")
        if not inner.coeffs[0].is_zero():
            raise ValueError("composition needs zero constant term in the inner series")
        n = min(self.order, inner.order)
        # inner = w h, so acc * inner at order m is acc * h at order m - 1
        # shifted up one place, where f_k takes the freed constant slot
        h = inner.truncate_to(n).shift_down(1)
        acc = replace(h, coeffs=(self.coeffs[n],), order=0)
        for k in range(n - 1, -1, -1):
            prod = acc * h.truncate_to(n - k - 1)
            acc = replace(prod, coeffs=(self.coeffs[k],) + prod.coeffs, order=n - k)
        return acc

    def revert(self, new_tag: str) -> "TruncatedSeries":
        """Compositional inverse g with self(g(w)) = w.

        Zero constant term and a unit linear coefficient u are required.
        Order by order (Knuth, TAOCP vol. 2, sec. 4.7): coefficient k of
        self(g) is u g_k plus terms in g_1 .. g_(k-1) alone, so pass k
        composes at order k with g_k still 0 and sets g_k to minus u^-1
        times that coefficient.  The inverse is unique to each order, so
        these are the Fractions that fixed-point iteration on the full
        composition converges to.  A closing full-order check stays.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("reversion needs zero constant term")
        u_inv = kin_unit_inverse(self.coeffs[1], self.beta_order)
        f = self.retag(new_tag)
        w = self._like([KinPoly(), KinPoly.const(1)], tag=new_tag)
        g = w.scale(u_inv)
        for k in range(2, self.order + 1):
            ck = f.truncate_to(k).compose(g.truncate_to(k)).coeffs[k]
            g = replace(g, coeffs=g.coeffs[:k] + (-self._cmul(ck, u_inv),)
                        + g.coeffs[k + 1:])
        if not (f.compose(g) - w).is_zero():
            raise AssertionError("series reversion failed to close")
        return g

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                bits.append(f"({c!r})*{self.tag}^{k}")
        body = " + ".join(bits) if bits else "0"
        return f"<series {body} + O({self.tag}^{self.order + 1})>"


# ---------------------------------------------------------------------
# Retardation expansions
# ---------------------------------------------------------------------

def l_series(order: int, beta_order: int | None = None) -> TruncatedSeries:
    """Advance l = x(t) - x(t_r) as a series in the retarded distance r.

    Taylor-expanding the trajectory about the retarded time gives
    l = beta*r + a r^2/2! + a1 r^3/3! + a2 r^4/4! + ...  (c = 1).
    """
    cs = [KinPoly(), KinPoly.beta()]
    for n in range(2, order + 1):
        cs.append(KinPoly.deriv(n - 2) * Q(1, math.factorial(n)))
    return TruncatedSeries.build(cs, order, "r", beta_order)


def _binomial_half(m: int) -> Fraction:
    """(-1)^m * C(1/2, m): coefficient of w^(2m) in sqrt(1 - w^2)."""
    c = Q(1)
    for k in range(m):
        c = c * (Q(1, 2) - k) / (k + 1)
    return c * (-1) ** m


def d_series(order: int, beta_order: int | None = None) -> TruncatedSeries:
    """Transverse separation d = sqrt(r^2 - l^2) as a series in r.

    d = r*sqrt(1 - z^2) with z = l/r.  z has constant term beta, so the
    binomial series in z must be cut somewhere.  Without a beta cap it
    is kept through z^4, the truncation under which the quoted full-beta
    coefficients hold.  Under a beta cap the cut grows with the order so
    that l^2 + d^2 = r^2 closes exactly in the quotient ring.
    """
    return _separation(l_series(order, beta_order))


def _separation(l: TruncatedSeries) -> TruncatedSeries:
    """d_series built from the advance series `l`, in the quotient ring of `l`."""
    # binomial terms kept: through z^4, or z^(2 order + 2) under a beta cap
    terms = 2 if l.beta_order is None else l.order + 1
    # pad z = l/r back to full order so products keep every needed power of r
    z = l._like(l.shift_down(1).coeffs)
    z2 = z * z
    acc = power = l._like([KinPoly.const(1)])
    for m in range(1, terms + 1):
        power = power * z2
        if power.is_zero():
            break
        acc = acc + power.scale(_binomial_half(m))
    return acc.shift_up(1)


def r_of_d_series(order: int, beta_order: int) -> TruncatedSeries:
    """Reversion of the separation series: r as a series in d.

    Only defined under a beta cap, where the linear coefficient of
    d(r) is a unit.  At first order in beta the result through d^3 is
    r = d + (a*beta/2) d^2 + (a^2/8 + a1*beta/6) d^3.
    """
    return d_series(order, beta_order).revert("d")


@dataclass(frozen=True)
class SelfForceExpansion:
    """Self-force bracket G as an exact Laurent-style series in d.

    The self-force is F = (e^2 / 8 pi eps0) * G with
    G = [(l - r beta)(1 - beta^2) - d^2 a] / (r - l beta)^3
    re-expanded in powers of the separation d.  `series` holds d*G, so
    G's coefficient at d^p is series.coefficient(p + 1).
    """

    series: TruncatedSeries

    def coefficient(self, exps: tuple[int, ...], d_power: int) -> Fraction:
        return self.series.coefficient(d_power + 1).coefficient(exps)

    @property
    def mass_term(self) -> Fraction:
        """Coefficient of a at 1/d; its negation halved is the added mass
        e^2/(16 pi eps0 c^2 d) once the 8 pi eps0 prefactor is restored."""
        return self.coefficient((0, 1), -1)

    @property
    def a2v_term(self) -> Fraction:
        return self.coefficient((1, 2), 0)

    @property
    def jerk_term(self) -> Fraction:
        return self.coefficient((0, 0, 1), 0)

    @property
    def a2a_term(self) -> Fraction:
        return self.coefficient((0, 3), 1)

    @property
    def snap_term(self) -> Fraction:
        return self.coefficient((0, 0, 0, 1), 1)


def eom_expansion(order: int, beta_order: int) -> TruncatedSeries:
    """d*G as a truncated series in d (see SelfForceExpansion).

    Pipeline: build numerator and denominator as series in r, divide
    out r^3, then substitute the reverted series r(d).
    """
    return _eom_from_advance(l_series(order, beta_order))


def _linear_eom_expansion(order: int) -> TruncatedSeries:
    """eom_expansion(order, 0) reduced modulo kinematic degree >= 2.

    Exact, not approximate: the reduction is a ring homomorphism (module
    notes), so every coefficient's linear kinematic part is the same
    Fraction the full ring gives, at a small fraction of the cost.
    """
    l = l_series(order, beta_order=0)
    return _eom_from_advance(TruncatedSeries.build(l.coeffs, order, l.tag, 0, kin_order=1))


def _eom_from_advance(l: TruncatedSeries) -> TruncatedSeries:
    """The eom_expansion pipeline in the quotient ring of the advance series `l`."""
    beta = KinPoly.beta()
    a = KinPoly.deriv(0)
    r_ident = l._like([KinPoly(), KinPoly.const(1)])
    dser = _separation(l)
    num = (l - r_ident.scale(beta)).scale(1 - beta * beta) - (dser * dser).scale(a)
    # the r^0 and r^1 coefficients cancel identically; r^2 starts at -a/2
    h = num.shift_down(2)
    z = l._like(l.shift_down(1).coeffs)
    den = l._like([KinPoly.const(1)]) - z.scale(beta)
    den_unit = den * den * den
    p = h * den_unit.inverse().truncate_to(h.order)
    rho = dser.revert("d")
    k = p.compose(rho.truncate_to(p.order))
    lunit = rho.shift_down(1).truncate_to(p.order)
    return k * lunit.inverse()


def self_force_series(order: int = 6) -> SelfForceExpansion:
    """Self-force expansion to first order in beta (exact rationals).

    The five named coefficients come out as
        a:      -1/2      at 1/d   (electromagnetic-mass term)
        a^2 v:  +1/2      at d^0
        a1:     +1/6      at d^0
        a^3:    +5/16     at d^1
        a2:     +1/24     at d^1
    The cubic 5/16 assembles across expansion orders: 1/4 arrives with
    the r^4 content of the numerator through the reverted r(d), and the
    remaining 1/16 from expanding the residual 1/r(d) factor; the same
    order also carries a (5/12) a*a1*beta cross term that the classical
    truncated forms drop silently.
    """
    if order < 5:
        raise ValueError("need order >= 5 to reach the d^1 coefficients")
    return SelfForceExpansion(eom_expansion(order, beta_order=1))


def linear_chain_coeffs(n_max: int) -> list[Fraction]:
    """Coefficients of the linearized self-force chain about rest.

    Entry n multiplies the n-th derivative of the acceleration at
    d-power n-1; the mechanical expansion yields -1/2 for n = 0 and
    1/(n+2)! for n >= 1, i.e. the shifted-exponential chain.

    Only the part linear in {a, a1, ...} is read, so the expansion runs
    in the quotient by kinematic degree >= 2 (see _linear_eom_expansion).
    That quotient is a ring homomorphism, so the coefficients are exactly
    those of eom_expansion(n_max + 3, 0), and the check below that no
    other linear term appears is the same check on the same Fractions.
    """
    order = n_max + 3
    m = _linear_eom_expansion(order)
    out: list[Fraction] = []
    for n in range(n_max + 1):
        poly = m.coefficient(n)  # d-power n-1
        lin = poly.linear_kinematic_part()
        expected_var = (0,) * (n + 1) + (1,)
        coef = lin.coefficient(expected_var)
        other = lin - KinPoly({_trim(expected_var): coef} if coef else {})
        if not other.is_zero():
            raise AssertionError(f"unexpected linear terms at d-power {n - 1}: {other!r}")
        out.append(coef)
    return out


def _chain_characteristic(chain: list[Fraction]) -> list[Fraction]:
    """Characteristic polynomial of the linear chain in mu (c = d = 1).

    Substituting x ~ e^(mu t) maps the n-th acceleration derivative to
    mu^(n+2), giving sum_n c_n mu^(n+2).  Returned as coefficients of
    mu^0 .. mu^(len(chain)+1); term by term this is the Maclaurin series of
    e^mu - 1 - mu - mu^2, whose vanishing is the quasi-polynomial
    mu^2 + mu + 1 - e^mu = 0 with the sign flipped.
    """
    return [Q(0), Q(0)] + chain


def exp_remainder_coeffs(n_max: int) -> list[Fraction]:
    """Maclaurin coefficients of e^mu - 1 - mu - mu^2 through mu^(n_max+2)."""
    out = [Q(0)] * (n_max + 3)
    for k in range(n_max + 3):
        out[k] = Q(1, math.factorial(k))
    out[0] -= 1
    out[1] -= 1
    out[2] -= 1
    return out


# ---------------------------------------------------------------------
# Identity suite (shared by the CLI verifier and the test suite)
# ---------------------------------------------------------------------

def verify_identities() -> list[tuple[str, bool, str]]:
    """Run every exact identity check; returns (check_id, ok, detail)."""
    checks: list[tuple[str, bool, str]] = []
    b = KinPoly.beta()
    a = KinPoly.deriv(0)
    a1 = KinPoly.deriv(1)
    a2 = KinPoly.deriv(2)

    def add(check_id: str, ok: bool, detail: str):
        checks.append((check_id, bool(ok), detail))

    expect = [Q(1), Q(-1, 2), Q(-1, 8), Q(-1, 16)]
    add("sqrt-binomial", [_binomial_half(m) for m in range(4)] == expect,
        "sqrt(1-z^2) = 1 - z^2/2 - z^4/8 - z^6/16 + ...")

    l = l_series(4)
    ok = (l.coefficient(1) == b and l.coefficient(2) == a * Q(1, 2)
          and l.coefficient(3) == a1 * Q(1, 6) and l.coefficient(4) == a2 * Q(1, 24))
    add("advance-series", ok, "l = beta r + a r^2/2 + a1 r^3/6 + a2 r^4/24")

    l2 = l * l
    ok = l2.coefficient(2) == b * b and l2.coefficient(3) == a * b
    add("advance-squared", ok, "l^2 carries beta^2 at r^2 and a*beta at r^3")

    df = d_series(3)
    ok = (df.coefficient(1) == KinPoly.const(1) - b * b * Q(1, 2) - (b * b * b * b) * Q(1, 8)
          and df.coefficient(2) == -(a * b) * Q(1, 2) - (a * b * b * b) * Q(1, 4)
          and df.coefficient(3) == -(a * a) * Q(1, 8) - (a * a * b * b) * Q(3, 16)
          - (a1 * b) * Q(1, 6) - (a1 * b * b * b) * Q(1, 12))
    add("separation-full", ok,
        "d(r) full-beta: (1 - b^2/2 - b^4/8) r - (a b/2)(1 + b^2/2) r^2 "
        "- [(a^2/8)(1 + 3b^2/2) + (a1 b/6)(1 + b^2/2)] r^3")

    d1 = d_series(3, beta_order=1)
    ok = (d1.coefficient(1) == KinPoly.const(1)
          and d1.coefficient(2) == -(a * b) * Q(1, 2)
          and d1.coefficient(3) == -(a * a) * Q(1, 8) - (a1 * b) * Q(1, 6))
    add("separation-linear-beta", ok, "d(r) at first order in beta")

    rho = r_of_d_series(3, beta_order=1)
    ok = (rho.coefficient(1) == KinPoly.const(1)
          and rho.coefficient(2) == (a * b) * Q(1, 2)
          and rho.coefficient(3) == (a * a) * Q(1, 8) + (a1 * b) * Q(1, 6))
    add("reversion", ok, "r(d) = d + (a b/2) d^2 + (a^2/8 + a1 b/6) d^3")

    d5 = d_series(5, beta_order=1)
    ok = d5.retag("d").compose(d5.revert("d")) == TruncatedSeries.identity(
        5, "d", 1)
    add("reversion-roundtrip", ok, "d(r(d)) = d through order 5")

    ok = True
    for cap in (1, 2, 3):
        n = 5
        lq = l_series(n, cap)
        dq = d5 if cap == 1 else d_series(n, cap)
        r2 = TruncatedSeries.identity(n, "r", cap)
        r2 = r2 * r2
        closure = lq * lq + dq * dq - r2
        ok = ok and closure.is_zero()
    add("pythagoras-closure", ok, "l^2 + d^2 = r^2 in beta-truncated rings")

    sf = self_force_series(6)
    ok = (sf.mass_term == Q(-1, 2) and sf.a2v_term == Q(1, 2)
          and sf.jerk_term == Q(1, 6) and sf.a2a_term == Q(5, 16)
          and sf.snap_term == Q(1, 24))
    add("self-force", ok,
        "G = -a/2d + (a^2 v)/2 + a1/6 + (5/16) a^3 d + a2 d/24 + ...")

    add("mass-term", sf.mass_term == Q(-1, 2),
        "added inertia e^2/(16 pi eps0 c^2 d) from the -a/(2d) term")

    chain = linear_chain_coeffs(8)
    ok = chain[0] == Q(-1, 2) and all(chain[n] == Q(1, math.factorial(n + 2))
                                      for n in range(1, 9))
    add("linear-chain", ok, "chain coefficients -1/2, then 1/(n+2)!")

    ok = _chain_characteristic(chain) == exp_remainder_coeffs(8)
    add("characteristic-closed-form", ok,
        "chain characteristic equals Maclaurin of e^mu - 1 - mu - mu^2")

    return checks
