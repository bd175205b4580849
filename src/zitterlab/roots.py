"""Characteristic roots of the linearized dumbbell delay dynamics.

The linearization about rest or uniform motion leads to the
quasi-polynomial

    f(z) = z^2 + z + 1 - e^z,

in the dilated eigenvalue z = lambda * gamma (lab-frame rate lambda =
z / gamma, frequencies Im z / gamma, in c = d = 1 units).  The drift
speed enters the stability problem only through that dilation.  Taking
the first variation of the motion equation about uniform drift, the
delay varies with the perturbed state both where it multiplies the
damping term and inside the advanced position; the two contributions
cancel identically, and with them every explicit (1 - beta^2) factor.
(Keeping only the former and dropping the advanced-position variation
would instead multiply (1 - e^z) by (1 - beta^2); the difference is
measurable, and the delay integrator sides with the cancellation: a
seeded mode e^{zt/gamma} continues across the history junction without
a kink only for roots of the form above.)

Every root solves z = Log(z^2 + z + 1) + 2 pi i k for exactly one
integer branch k (Log the principal logarithm), so |Im z - 2 pi k| <= pi.
Branch 0 holds z = 0, a double root (position offsets and drift changes
form the neutral family), and one positive real root near 9/5
(model.dominant_real_root).  Each branch k != 0 holds one simple root,
where the fixed-point map contracts (|d/dz Log(z^2 + z + 1)| ~ 2/|z|);
branch -k holds its conjugate, and Re z grows like 2*ln|Im z| up the
ladder (Bellman & Cooke 1963, ch. 12-13; Corless et al. 1996 on branch
indexing).  Only 0 is a multiple root: f = f' = 0 forces z^2 = z, and
f(1) != 0.  Censuses are enumerated branch by branch and certified:
the total multiplicity must equal the argument-principle winding count
(Delves & Lyness 1967) on a contour kept clear of every root, or they
raise.  The count is a proof (argument_principle_count).

Numerics notes:

* Near z = 0 the textbook form loses all significance to cancellation;
  evaluation uses z^2 + z - expm1(z), which is exact in the small-|z|
  limit.
* For Re z large, e^z overflows double precision; Newton steps and the
  reported residual therefore use the rescaled value e^(-max(Re z, 0))
  * f(z), which shares f's zeros and phase and keeps |.| representable.
  Residuals quoted anywhere in this module are of the rescaled value.
* f has one evaluator, CharEq, on Python complex numbers: every
  transcendental factor comes from libm through `math` and `cmath`.
  The complex expm1 is expm1(x) cos y - 2 sin(y/2)^2 + i exp(x) sin y,
  the formula numpy's complex expm1 uses, and the damping factor is
  math.exp's.  The census, the winding walk and the spectrum run on it
  without numpy.
* The domain-coloring render gets CharEq's values bit for bit from
  the same libm factors, taken once per pixel column and row
  (render_domain_coloring).  It alone imports numpy.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .model import dominant_real_root

# every branch root must reach it, or 4 eps |z| where a correctly
# rounded root leaves more (|z| > ~1100)
RESIDUAL_TARGET = 1e-12

_TWO_PI = 2.0 * math.pi
# steps of z <- Log(z^2 + z + 1) + 2 pi i k, then of Newton, per branch
_FIXED_POINT_STEPS = 40
_NEWTON_STEPS = 3
# The winding walk's first steps are at most 1/_EDGE_STEPS of an edge and
# _WALK_STEP long; it halves unproven segments down to _FLOOR (1 + |z|)
# (argument_principle_count).  An edge delta off the double root at 0
# costs ~1/delta values of f: the walk refuses 0 nearer than _CLEARANCE,
# and certification keeps it _CLEARANCE max(side, 1) off the contour.
_EDGE_STEPS = 64
_WALK_STEP = 0.5
_FLOOR = 2.0 ** -48
_ROUNDING = 256.0 * sys.float_info.epsilon
_CLEARANCE = 1.0 / 240.0
_SIMPLE_CLEARANCE = 1e-9   # a simple root needs only a rounding margin
# Segments the winding walk takes before it gives up: find_roots refuses
# a region whose first steps alone need this many (perimeter ~100,000).
_WALK_BUDGET = 200000

# Re z beyond which evaluation switches to the rescaled form
_SCALE_SWITCH = 700.0

# rows per block of render_domain_coloring: a 1600-wide block's float
# temporaries stay near the cache, and memory stays bounded
_RENDER_ROWS = 16


@dataclass(frozen=True)
class CharEq:
    """The characteristic quasi-polynomial f.

    f is the same for every drift state in the dilated variable (see
    the module notes); callers turn a root z into the lab-frame rate
    z / gamma of their drift.
    """

    def value(self, z) -> complex:
        """f(z) at the number z; cancellation-safe near 0, inf or nan
        where e^z overflows (Re z >~ 709)."""
        z = complex(z)
        return z * z + z - _expm1(z)

    def scaled_value(self, z) -> complex:
        """e^(-max(Re z, 0)) * f(z) at the number z, stable against
        overflow.

        Below the overflow switch this is the cancellation-safe value
        times the damping factor; beyond it the exponential is folded
        into the damping so no intermediate overflows.
        """
        z = complex(z)
        x = max(z.real, 0.0)
        damp = math.exp(-x)
        if z.real < _SCALE_SWITCH:
            return self.value(z) * damp
        # f(z) = z^2 + z + 1 - e^z, exponential damped separately
        return (z * z + z + 1.0) * damp - cmath.exp(z - x)

    def residual(self, z) -> float:
        return abs(self.scaled_value(z))


def _libm(fn, t: float) -> float:
    """fn(t) from the C library, inf where math raises OverflowError."""
    try:
        return fn(t)
    except OverflowError:
        return math.inf


def _expm1(z: complex) -> complex:
    """e^z - 1 as numpy's complex expm1 forms it from libm:
    expm1(x) cos y - 2 sin(y/2)^2 + i exp(x) sin y."""
    x, y = z.real, z.imag
    half = math.sin(y / 2)
    return complex(_libm(math.expm1, x) * math.cos(y) - 2.0 * half * half,
                   _libm(math.exp, x) * math.sin(y))


@dataclass(frozen=True)
class Region:
    """Closed rectangle [x0, x1] x [y0, y1] in the complex plane."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate region {self!r}")
        if not (math.isfinite(self.x1 - self.x0)
                and math.isfinite(self.y1 - self.y0)):
            raise ValueError(f"region {self!r} needs finite edges and sides")

    def contains(self, z) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1

    @classmethod
    def parse(cls, text: str) -> "Region":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"region needs x0,x1,y0,y1 — got {text!r}")
        return cls(*parts)


@dataclass(frozen=True)
class Root:
    value: complex
    residual: float
    multiplicity: int = 1


@dataclass(frozen=True)
class RootSet:
    """A certified census.  seeds_total counts the branches enumerated,
    seeds_converged those with a root in the region."""

    region: Region
    roots: tuple[Root, ...]
    seeds_total: int
    seeds_converged: int

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def find_roots(eq: CharEq, region: Region,
               grid_density: float | None = None) -> RootSet:
    """All roots of eq in the closed region, sorted by (Re, Im).

    Only branches ceil((y0 - pi) / 2pi) .. floor((y1 + pi) / 2pi), with
    y0 and y1 widened to cover the contour _certify moves off 0, can
    reach the region; _census enumerates them.  _certify raises
    RuntimeError unless the census matches the proven winding count on
    the region kept _CLEARANCE max(side, 1) off 0.  A region whose edges
    need _WALK_BUDGET first steps of the walk, which could never finish,
    raises ValueError first.  `grid_density` is accepted and ignored.
    """
    # a side the length of the whole budget decides alone, and the clip
    # keeps a side near the float limit countable
    cap = _WALK_BUDGET * _WALK_STEP
    if 2 * sum(_edge_steps(min(side, cap)) for side in (
            region.x1 - region.x0, region.y1 - region.y0)) >= _WALK_BUDGET:
        raise ValueError(f"region {region} is too large to certify: its "
                         f"edges need {_WALK_BUDGET} or more winding-walk "
                         f"steps (a perimeter of about {cap:g})")
    clear = _CLEARANCE * max(region.x1 - region.x0, region.y1 - region.y0,
                             1.0)
    ks = range(math.ceil((region.y0 - 3.0 * clear - math.pi) / _TWO_PI),
               math.floor((region.y1 + 3.0 * clear + math.pi) / _TWO_PI) + 1)
    census = _census(eq, ks)
    _certify(eq, region, [r for _, r in census])
    inside = [(k, r) for k, r in census if region.contains(r.value)]
    roots = sorted((r for _, r in inside),
                   key=lambda r: (r.value.real, r.value.imag))
    return RootSet(region=region, roots=tuple(roots),
                   seeds_total=len(ks),
                   seeds_converged=len({k for k, _ in inside}))


def _census(eq: CharEq, ks) -> list[tuple[int, Root]]:
    """(k, root) for every root on the branches ks.

    Branch 0 gives the exact double root at 0 and dominant_real_root();
    each branch k < 0 the conjugate of branch -k's root.
    """
    upper = _upper_branches(eq, {abs(k) for k in ks} - {0})
    census = []
    for k in ks:
        if k == 0:
            lam = dominant_real_root()
            census += [(0, Root(0j, 0.0, 2)),     # f(0) = 0 exactly
                       (0, Root(complex(lam), eq.residual(lam)))]
        else:
            r = upper[abs(k)]
            census.append((k, r if k > 0 else
                           Root(r.value.conjugate(), r.residual)))
    return census


def _upper_branches(eq: CharEq, ks) -> dict[int, Root]:
    """{k: the root of branch k} for each k >= 1 in ks.

    From x = ln(y^2 + 2), y = 2 pi k + 2.2, each branch takes a fixed
    number of steps of z <- Log(z^2 + z + 1) + 2 pi i k and of
    _newton_step, then up to 8 more Newton steps, until its first that
    does not lower the residual.  A branch whose residual reaches
    max(RESIDUAL_TARGET, 4 eps |z|), or whose root leaves its band
    |Im z - 2 pi k| <= pi, raises.
    """
    roots, bad = {}, []
    for k in sorted(ks):
        turn = complex(0.0, _TWO_PI * k)
        y = _TWO_PI * k + 2.2
        z = complex(math.log(y * y + 2.0), y)
        for _ in range(_FIXED_POINT_STEPS):
            z = cmath.log(z * z + z + 1.0) + turn
        for _ in range(_NEWTON_STEPS):
            z = _newton_step(eq, z)
        res = eq.residual(z)
        for _ in range(8):
            znew = _newton_step(eq, z)
            rnew = eq.residual(znew)
            # as `not rnew >= res`: any finite residual beats a nan one
            if not math.isfinite(rnew) or rnew >= res:
                break
            z, res = znew, rnew
        if (res < max(RESIDUAL_TARGET, 4.0 * sys.float_info.epsilon * abs(z))
                and abs(z.imag - _TWO_PI * k) <= math.pi + 1e-9):
            roots[k] = Root(z, res)
        else:
            bad.append(k)
    if bad:
        first = ", ".join(map(str, bad[:5])) + (", ..." if bad[5:] else "")
        raise RuntimeError(f"{len(bad)} branches ({first}) found no root "
                           f"in their band")
    return roots


def _newton_step(eq: CharEq, z: complex) -> complex:
    """One Newton step on the rescaled f from z."""
    x = max(z.real, 0.0)
    return z - eq.scaled_value(z) / (
        (2.0 * z + 1.0) * math.exp(-x) - cmath.exp(z - x))


def _edge_steps(length: float) -> int:
    """The winding walk's first steps along an edge of this length."""
    return max(_EDGE_STEPS, math.ceil(length / _WALK_STEP))


def _certify(eq: CharEq, region: Region, roots: list[Root]) -> None:
    """Match the census to the winding count, or raise RuntimeError.

    The contour is the region, each edge moved outward past every root
    nearer than _CLEARANCE max(side, 1) (0: the walk costs ~1/distance
    values of f there) or max(_SIMPLE_CLEARANCE, 2^-45 |z|) (any other
    root z).
    """
    x0, x1, y0, y1 = region.x0, region.x1, region.y0, region.y1
    clear = _CLEARANCE * max(x1 - x0, y1 - y0, 1.0)
    edges = None
    while edges != (x0, x1, y0, y1):
        edges = (x0, x1, y0, y1)
        for r in roots:
            z = r.value
            # a simple root: past the walk's floor 2^-48 (1 + |z|) and
            # the root's own rounding eps |z|
            d = (clear if r.multiplicity > 1 else
                 max(_SIMPLE_CLEARANCE, 8.0 * _FLOOR * abs(z)))
            if y0 - d < z.imag < y1 + d:
                x0 = z.real - d if abs(z.real - x0) < d else x0
                x1 = z.real + d if abs(z.real - x1) < d else x1
            if x0 - d < z.real < x1 + d:
                y0 = z.imag - d if abs(z.imag - y0) < d else y0
                y1 = z.imag + d if abs(z.imag - y1) < d else y1
    box = Region(*edges)
    try:
        count = argument_principle_count(eq, box)
    except ValueError as exc:
        raise RuntimeError(f"census on {box} not certified: {exc}") from exc
    found = sum(r.multiplicity for r in roots if box.contains(r.value))
    if found != count:
        raise RuntimeError(f"census found {found} roots on {box}, "
                           f"the argument principle counts {count}")


# ---------------------------------------------------------------------
# Argument-principle audit
# ---------------------------------------------------------------------

def argument_principle_count(eq: CharEq, region: Region) -> int:
    """Zeros (with multiplicity) inside region, by a proven phase walk.

    It sums the phase turn of s = e^(-max(Re z, 0)) f along the edges,
    from at least _EDGE_STEPS first steps per edge of at most _WALK_STEP,
    in level passes.  A segment [a, b] of length h adds Arg(s(b) / s(a))
    exactly when L h + e(a) + e(b) < |s(a)|, L = max(|2a + 1|, |2b + 1|)
    e^(-x) + e^(max(Re a, Re b) - x), x = max(Re a, 0), and is halved
    into the next level otherwise: g = e^(-x) f is s(a) at a and |g'| <=
    L on [a, b], so g stays within L h of s(a), off 0 (Moore, Kearfott &
    Cloud 2009).  With libm within 2 ulp and u = eps / 2, z z + z, expm1,
    their difference and the damping d = e^(-max(Re z, 0)) err by u (6
    |z|^2 + 2 |z|), u (19 e^Re z + 30), u (2 |z|^2 + 2 |z| + 4 e^Re z + 6)
    and 8 u |f| d to first order: s, in either form, by err(z) <= 38 eps
    ((1 + |z|)^2 d + 1).  The computed s(a), and s(b) e^(Re b - Re a)
    with s(b)'s phase, lie within err(a) and e^(1/2) err(b) of g's path,
    and L, h and |s(a)| round by 15 u |s(a)|: e(z) = _ROUNDING ((1 +
    |z|)^2 d + 1) needs _ROUNDING >= 63 eps; 256 eps is four times over.
    The points keep an edge's fixed coordinate exactly and end on its
    corners, so the terms sum to 2 pi times the count; along an edge
    they stray by ~eps |z|, far under the 2^-45 |z| and _SIMPLE_CLEARANCE
    that _certify keeps a simple root off the contour.

    ValueError: an unproven segment shorter than _FLOOR (1 + |a|), or 0
    within _CLEARANCE of the contour (proven segments shrink as delta^2
    at a distance delta from 0: an edge costs ~1/delta values of f).
    RuntimeError: past _WALK_BUDGET segments.
    """
    x0, x1, y0, y1 = region.x0, region.x1, region.y0, region.y1
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
               complex(x0, y1), complex(x0, y0)]
    total = 0.0
    budget = _WALK_BUDGET
    for a, b in zip(corners[:-1], corners[1:]):
        n = _edge_steps(abs(b - a))
        # the point of the edge nearest 0
        near = complex(min(max(0.0, min(a.real, b.real)), max(a.real, b.real)),
                       min(max(0.0, min(a.imag, b.imag)), max(a.imag, b.imag)))
        if abs(near) < _CLEARANCE:
            raise ValueError(f"the double root at 0 lies {abs(near):.3g} "
                             f"from the contour, nearer than {_CLEARANCE:.3g}")
        # the first level meets the budget before its points are evaluated
        if budget - n <= 0:
            raise RuntimeError("argument-principle walk did not converge")
        # t = i / n as numpy.linspace rounds it, i * (1 / n), and b last
        step = 1.0 / n
        pts = [_point(eq, a + (b - a) * (i * step)) for i in range(n)]
        level = list(zip(pts, pts[1:] + [_point(eq, b)]))
        while level:
            budget -= len(level)
            if budget <= 0:
                raise RuntimeError("argument-principle walk did not converge")
            finer = []
            for pa, pb in level:
                (za, fa, ea, ma), (zb, fb, eb, mb) = pa, pb
                xa, xb = za.real, zb.real
                x = xa if xa > 0.0 else 0.0
                lip = ((ma if ma > mb else mb) * math.exp(-x)
                       + math.exp((xa if xa > xb else xb) - x))
                if lip * abs(zb - za) + ea + eb < abs(fa):
                    total += cmath.phase(fb / fa)
                elif abs(zb - za) < _FLOOR * (1.0 + abs(za)):
                    raise ValueError(
                        "characteristic zero too close to the contour")
                else:
                    pm = _point(eq, 0.5 * (za + zb))
                    finer += [(pa, pm), (pm, pb)]
            level = finer
    count = round(total / _TWO_PI)
    if abs(total / _TWO_PI - count) > 0.05:
        raise RuntimeError(f"non-integer winding {total / _TWO_PI!r}")
    return count


def _point(eq: CharEq, z: complex) -> tuple:
    """(z, s(z), e(z), |2z + 1|) for the winding walk."""
    r = 1.0 + abs(z)
    damp = math.exp(-z.real) if z.real > 0.0 else 1.0
    return (z, eq.scaled_value(z), _ROUNDING * (r * r * damp + 1.0),
            abs(2.0 * z + 1.0))


# ---------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """First `count` positive imaginary parts eta_n with their roots."""

    etas: tuple[float, ...]
    roots: tuple[complex, ...]
    slope: float
    intercept: float
    r_squared: float


def spectrum(beta: float, count: int = 10) -> Spectrum:
    """eta_n ladder: imaginary parts of the first `count` upper roots.

    The roots are those of branches 1..count of the census (see
    find_roots), which sit near Im z = 2 pi n + O(1).  The gaps between
    neighbours must lie in [3, 9.5]; _certify on the strip
    [-3, max Re + 3] x [0.5, eta_count + pi] confirms that no root was
    skipped, and a least-squares line eta_n ~ slope*n + intercept
    quantifies the (nearly exact) linear dependence on n.  The ladder is
    a property of f alone, the same for every drift, so `beta` is
    accepted and ignored.  A line needs two branches: a count below 2
    raises ValueError.
    """
    if count < 2:
        raise ValueError(f"the ladder fit needs 2 or more branches, "
                         f"got {count}")
    eq = CharEq()
    upper = _upper_branches(eq, range(1, count + 1))
    found = [upper[n].value for n in range(1, count + 1)]
    etas = [w.imag for w in found]
    if any(not 3.0 <= b - a <= 9.5 for a, b in zip(etas, etas[1:])):
        raise RuntimeError("spectrum branches misordered")
    strip = Region(-3.0, max(w.real for w in found) + 3.0,
                   0.5, found[-1].imag + math.pi)
    _certify(eq, strip, list(upper.values()))
    # the least-squares line through (n, eta_n), about the centroid
    ns = range(1, count + 1)
    n_mean, eta_mean = sum(ns) / count, sum(etas) / count
    slope = (sum((n - n_mean) * (e - eta_mean) for n, e in zip(ns, etas))
             / sum((n - n_mean) ** 2 for n in ns))
    intercept = eta_mean - slope * n_mean
    ss_res = sum((e - (slope * n + intercept)) ** 2 for n, e in zip(ns, etas))
    ss_tot = sum((e - eta_mean) ** 2 for e in etas)
    return Spectrum(etas=tuple(etas), roots=tuple(found), slope=slope,
                    intercept=intercept, r_squared=1.0 - ss_res / ss_tot)


# ---------------------------------------------------------------------
# Domain coloring
# ---------------------------------------------------------------------

def render_domain_coloring(eq: CharEq, region: Region,
                           size: tuple[int, int]):
    """Phase portrait of f over region as an (H, W, 3) uint8 numpy
    image.

    Hue encodes the phase of the rescaled value e^(-max(Re z, 0)) f;
    luminance ramps between integer-|f| level curves so every
    unit-modulus band reads as one stripe and zeros show as full hue
    fans.  Pixel centers sample the region with row 0 at Im = y1 (image
    convention).

    f's libm factors are taken once per column and per row, bit for bit
    CharEq's (_grid_values), and the image is filled from render_slabs'
    slabs of _RENDER_ROWS rows.  Pure elementwise float math:
    byte-identical output for identical inputs.
    """
    import numpy as np
    w, h = size
    image = np.empty((h, w, 3), dtype=np.uint8)
    r0 = 0
    for pixels in render_slabs(region, size):
        image[r0:r0 + len(pixels)] = pixels
        r0 += len(pixels)
    return image


def render_slabs(region: Region, size: tuple[int, int]):
    """The domain coloring of region at size (render_domain_coloring),
    as an iterator of uint8 (rows, W, 3) slabs of _RENDER_ROWS image
    rows each, the last one maybe shorter.  The size and the pixel
    centres are checked here, when called: a bad size, or a region whose
    pixel centres pass the float range, raises ValueError before any
    slab is made.  The column factors are taken once for every slab."""
    import numpy as np
    w, h = size
    if w < 1 or h < 1:
        raise ValueError(f"bad image size {size!r}")
    with np.errstate(over="ignore"):
        xs = region.x0 + (np.arange(w) + 0.5) * (region.x1 - region.x0) / w
        ys = region.y1 - (np.arange(h) + 0.5) * (region.y1 - region.y0) / h
    if not np.isfinite(np.concatenate([xs, ys])).all():
        raise ValueError(f"the pixel centres of {region} pass the float range")
    return _slabs(_column_factors(xs), ys)


def _slabs(cols, ys):
    """render_slabs' slabs, one per _RENDER_ROWS rows of ys."""
    import numpy as np
    # A slab's temporaries are released only as the next slab's replace
    # them.  Released all at once, at a return, they left the heap's top
    # free, the C allocator handed it back to the OS, and every
    # 1600-wide slab faulted its ~5 MB in afresh: a third of its time
    for r0 in range(0, ys.size, _RENDER_ROWS):
        with np.errstate(all="ignore"):
            v, f = _grid_values(cols, ys[r0:r0 + _RENDER_ROWS])
            # in [-0.5, 0.5], where numpy's "% 1.0" is this add
            hue = np.angle(f) / (2.0 * math.pi)
            hue = np.where(hue < 0.0, hue + 1.0, hue)
            mag = np.abs(v)
            band = np.where(np.isfinite(mag) & (mag < 2.0 ** 52),
                            mag - np.floor(mag), 1.0)
        bad = ~np.isfinite(f)
        hue = np.where(bad, 0.0, hue)
        val = np.where(bad, 1.0, 0.55 + 0.40 * band)
        sat = np.where(bad, 0.0, 0.88)
        rgb = _hsv_to_rgb(hue, sat, val)
        yield np.clip(np.floor(rgb * 256.0), 0.0, 255.0).astype(np.uint8)


def _column_factors(xs):
    """Per-column factors of f on the grid xs x ys, xs a float array:
    (xs, expm1(xs), exp(xs), e^(-max(xs, 0)), Re z >= _SCALE_SWITCH).

    Each exponential comes from libm through `math`, as CharEq takes it;
    numpy's own float64 exp and expm1 differ from libm in last bits.
    """
    import numpy as np
    em1 = np.array([_libm(math.expm1, x) for x in xs.tolist()])
    ex = np.array([_libm(math.exp, x) for x in xs.tolist()])
    damp = np.array([math.exp(-max(x, 0.0)) for x in xs.tolist()])
    return xs, em1, ex, damp, ~(xs < _SCALE_SWITCH)


def _grid_values(cols, ys):
    """(f(z), e^(-max(Re z, 0)) f(z)) on z = xs + i ys, one row per y
    of the float array ys.

    Bit for bit CharEq.value(z) and CharEq.scaled_value(z).  The expm1
    factors are taken once per column (_column_factors) and per row
    here, and only the multiplies and adds run per pixel.  Columns past
    _SCALE_SWITCH take scaled_value's split form, where e^(z - x) is
    cos(y) + i sin(y).
    """
    import numpy as np
    xs, em1, ex, damp, far = cols
    # libm, as for the columns: numpy's float64 sin and cos need not match
    cos = np.array([math.cos(y) for y in ys.tolist()])[:, None]
    sin = np.array([math.sin(y) for y in ys.tolist()])[:, None]
    half = np.array([math.sin(y / 2) for y in ys.tolist()])[:, None]
    y = ys[:, None]
    # z^2 + z as Python's complex arithmetic forms it: (x x - y y + x)
    # + i (x y + y x + y), each product rounded on its own
    w = np.empty((ys.size, xs.size), dtype=complex)
    np.subtract(xs * xs, y * y, out=w.real)
    w.real += xs
    np.multiply(xs, y, out=w.imag)
    w.imag *= 2.0
    w.imag += y
    v = w.copy()
    v.real -= em1 * cos - 2.0 * half * half
    v.imag -= ex * sin
    f = v * damp
    if far.any():
        rot = np.empty(cos.shape, dtype=complex)
        rot.real, rot.imag = cos, sin
        f[:, far] = (w[:, far] + 1.0) * damp[far] - rot
    return v, f


def _hsv_to_rgb(h, s, v):
    """(..., 3) RGB of same-shape h, s, v arrays, h in [0, 1]."""
    import numpy as np
    # (r, g, b) of hue sector floor(6 h), as indices into (v, p, q, t);
    # sector 6 (h = 1) is sector 0
    sectors = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3],
                        [1, 2, 0], [3, 1, 0], [0, 1, 2], [0, 3, 1]])
    i = np.floor(h * 6.0)
    fr = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * fr)
    t = v * (1.0 - s * (1.0 - fr))
    # one flat take: pixel k's candidates sit at 4k .. 4k + 3
    pick = sectors.take(i.astype(int), axis=0)
    pick += np.arange(0, 4 * h.size, 4).reshape(h.shape + (1,))
    return np.stack([v, p, q, t], axis=-1).take(pick)


def ppm_header(size: tuple[int, int]) -> bytes:
    """The binary PPM header of a W x H image, its pixels to follow as
    3 bytes each, row by row."""
    w, h = size
    return f"P6\n{w} {h}\n255\n".encode("ascii")
