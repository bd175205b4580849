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
form the neutral family), and one positive real root near 9/5.  Each
branch k != 0 holds one simple root, where the fixed-point map
contracts (|d/dz Log(z^2 + z + 1)| ~ 2/|z|); branch -k holds its
conjugate, and Re z grows like 2*ln|Im z| up the ladder (Bellman &
Cooke 1963, ch. 12-13; Corless et al. 1996 on branch indexing).  Only 0
is a multiple root: f = f' = 0 forces z^2 = z, and f(1) != 0.  Censuses
are enumerated branch by branch and certified: the total multiplicity
must equal the argument-principle winding count (Delves & Lyness 1967)
on a contour kept clear of every root, or they raise.

Numerics notes:

* Near z = 0 the textbook form loses all significance to cancellation;
  evaluation uses z^2 + z - expm1(z), which is exact in the small-|z|
  limit.
* For Re z large, e^z overflows double precision; Newton steps and the
  reported residual therefore use the rescaled value e^(-max(Re z, 0))
  * f(z), which shares f's zeros and phase and keeps |.| representable.
  Residuals quoted anywhere in this module are of the rescaled value.
* The domain-coloring render evaluates f on a pixel grid whose real
  part is set by the column and imaginary part by the row.  numpy's
  complex expm1 is a product of libm's expm1/exp of Re z and cos/sin of
  Im z, so the render takes those once per column and per row, from
  libm through `math` (numpy's own float64 SIMD exp and expm1 differ
  from libm in about 5% of last bits), and gets CharEq.value and
  CharEq.scaled_value bit for bit with only multiplies and adds per
  pixel.  It colors blocks of rows into one preallocated image, so its
  memory stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RESIDUAL_TARGET = 1e-12     # every branch root must reach it

_TWO_PI = 2.0 * math.pi
# steps of z <- Log(z^2 + z + 1) + 2 pi i k, then of Newton, per branch
_FIXED_POINT_STEPS = 40
_NEWTON_STEPS = 3
# The winding walk's first steps are at most 1/_EDGE_STEPS of an edge and
# _WALK_STEP long.  Within a quarter step of the contour the double root
# at 0 can turn the phase by nearly a full turn per step, which the walk
# reads as none, and within ~1e-6 |f| ~ |z|^2 / 2 trips its 1e-12 guard;
# so the walk refuses 0 nearer than max(step / 4, 1e-5).  Certification
# keeps 0 max(side / 240, 1e-5) off the contour: moving edges off the
# roots lengthens a side by at most two clearances, and
# (1 + 2 / 240) / 256 < 1 / 240.  A simple root turns the phase by < pi
# and needs only a rounding margin.
_EDGE_STEPS = 64
_CLEARANCE = 1.0 / 240.0
_ORIGIN_CLEARANCE = 1e-5
_SIMPLE_CLEARANCE = 1e-9
# e^z turns the phase by 1 rad per unit of Im z; steps of at most 0.5
# keep the walk from wrapping a full turn into a small jump.
_WALK_STEP = 0.5

# Re z beyond which evaluation switches to the rescaled form
_SCALE_SWITCH = 700.0

# rows per block of render_domain_coloring: a 1600-wide block's float
# temporaries stay near the cache, and memory stays bounded
_RENDER_ROWS = 16


@dataclass(frozen=True)
class CharEq:
    """Characteristic quasi-polynomial of a drift state.

    beta tags the physical state the equation was linearized about;
    the function itself is beta-independent in the dilated variable
    (see the module notes), so beta only matters when converting roots
    to lab-frame rates.
    """

    beta: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1.0:
            raise ValueError(f"|beta| must be < 1, got {self.beta!r}")

    def value(self, z):
        """f(z); cancellation-safe near 0, may overflow for Re z >~ 709."""
        z = np.asarray(z, dtype=complex)
        return z * z + z - np.expm1(z)

    def scaled_value(self, z):
        """e^(-max(Re z, 0)) * f(z), stable against overflow.

        Below the overflow switch this is the cancellation-safe value
        times the damping factor; beyond it the exponential is folded
        into the damping so no intermediate overflows.
        """
        z = np.asarray(z, dtype=complex)
        x = np.maximum(z.real, 0.0)
        damp = np.exp(-x)
        with np.errstate(all="ignore"):
            safe = (z * z + z - np.expm1(z)) * damp
            # f(z) = z^2 + z + 1 - e^z, exponential damped separately
            split = (z * z + z + 1.0) * damp - np.exp(z - x)
        return np.where(z.real < _SCALE_SWITCH, safe, split)

    def residual(self, z):
        return np.abs(self.scaled_value(z))


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

    eq: CharEq
    region: Region
    roots: tuple[Root, ...]
    seeds_total: int
    seeds_converged: int

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.roots], dtype=complex)

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def find_roots(eq: CharEq, region: Region,
               grid_density: float | None = None) -> RootSet:
    """All roots of eq in the closed region, sorted by (Re, Im).

    Only branches ceil((y0 - pi) / 2pi) .. floor((y1 + pi) / 2pi), with
    y0 and y1 widened to cover the contour _certify moves off 0, can
    reach the region; _census enumerates them.  _certify raises
    RuntimeError unless the census matches the winding count.
    `grid_density` is accepted and ignored: there is no seed grid.
    """
    clear = max(_CLEARANCE * max(region.x1 - region.x0, region.y1 - region.y0),
                _ORIGIN_CLEARANCE)
    ks = range(math.ceil((region.y0 - 3.0 * clear - math.pi) / _TWO_PI),
               math.floor((region.y1 + 3.0 * clear + math.pi) / _TWO_PI) + 1)
    census = _census(eq, ks)
    _certify(eq, region, [r for _, r in census], clear)
    inside = [(k, r) for k, r in census if region.contains(r.value)]
    roots = sorted((r for _, r in inside),
                   key=lambda r: (r.value.real, r.value.imag))
    return RootSet(eq=eq, region=region, roots=tuple(roots),
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
            lam = dominant_real_root(eq.beta)
            census += [(0, Root(0j, 0.0, 2)),     # f(0) = 0 exactly
                       (0, Root(complex(lam), float(eq.residual(lam))))]
        else:
            r = upper[abs(k)]
            census.append((k, r if k > 0 else
                           Root(r.value.conjugate(), r.residual)))
    return census


def _upper_branches(eq: CharEq, ks) -> dict[int, Root]:
    """{k: the root of branch k} for each k >= 1 in ks.

    From x = ln(y^2 + 2), y = 2 pi k + 2.2, a fixed number of steps of
    z <- Log(z^2 + z + 1) + 2 pi i k and of Newton on the rescaled f run
    on all branches at once; _polish finishes each.  A branch that
    misses RESIDUAL_TARGET or its band |Im z - 2 pi k| <= pi raises.
    """
    ks = sorted(ks)
    k = np.array(ks, dtype=float)
    y = _TWO_PI * k + 2.2
    z = np.log(y * y + 2.0) + 1j * y
    with np.errstate(all="ignore"):
        for _ in range(_FIXED_POINT_STEPS):
            z = np.log(z * z + z + 1.0) + 1j * _TWO_PI * k
        for _ in range(_NEWTON_STEPS):
            x = np.maximum(z.real, 0.0)
            z = z - eq.scaled_value(z) / (
                (2.0 * z + 1.0) * np.exp(-x) - np.exp(z - x))
        res = eq.residual(z)
    roots = {n: _polish(eq, complex(w), float(r))
             for n, w, r in zip(ks, z, res)}
    bad = [n for n, r in roots.items() if not (r.residual < RESIDUAL_TARGET
           and abs(r.value.imag - _TWO_PI * n) <= math.pi + 1e-9)]
    if bad:
        raise RuntimeError(f"branches {bad} found no root in their band")
    return roots


def _certify(eq: CharEq, region: Region, roots: list[Root],
             clear: float) -> None:
    """Match the census to the winding count, or raise RuntimeError.

    The contour is the region, each edge moved outward past every root
    nearer than `clear` (0) or _SIMPLE_CLEARANCE (any other root).
    """
    x0, x1, y0, y1 = region.x0, region.x1, region.y0, region.y1
    edges = None
    while edges != (x0, x1, y0, y1):
        edges = (x0, x1, y0, y1)
        for r in roots:
            z = r.value
            d = clear if r.multiplicity > 1 else _SIMPLE_CLEARANCE
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


def _polish(eq: CharEq, z: complex, res: float) -> Root:
    for _ in range(8):
        with np.errstate(all="ignore"):
            f = complex(eq.scaled_value(z))
            x = max(z.real, 0.0)
            fp = (2.0 * z + 1.0) * math.exp(-x) - complex(np.exp(z - x))
        if fp == 0:
            break
        znew = z - f / fp
        rnew = float(eq.residual(znew))
        if not math.isfinite(rnew) or rnew >= res:
            break
        z, res = znew, rnew
    return Root(complex(z), float(res))


def dominant_real_root(beta: float = 0.0) -> float:
    """The unique positive real root of the characteristic function.

    f rises quadratically from its double zero at the origin and stays
    positive until the exponential overtakes the parabola, so there is
    exactly one sign change on (0, inf).  Bisection from a doubling
    bracket; ~1e-16 accurate.  The argument only tags the physical
    state: the root itself is the same for every beta.
    """
    eq = CharEq(beta)

    def s(x: float) -> float:
        # rescaled f has the same sign as f on the real axis
        return float(eq.scaled_value(x).real)

    lo = 0.5
    if s(lo) <= 0.0:
        raise RuntimeError("characteristic function not positive at 0.5")
    hi = 1.0
    for _ in range(60):
        hi *= 2.0
        if s(hi) < 0.0:
            break
    else:
        raise RuntimeError("no sign change found for the real root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break              # the bracket is a fixed point of halving
        if s(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------
# Argument-principle audit
# ---------------------------------------------------------------------

def argument_principle_count(eq: CharEq, region: Region) -> int:
    """Zeros (with multiplicity) inside region by boundary phase walk.

    Walks the rectangle boundary accumulating the wrapped phase change
    of the rescaled characteristic value (rescaling by a positive real
    factor leaves the phase untouched), adaptively bisecting any segment
    whose phase jump exceeds ~0.8 rad, from at least _EDGE_STEPS steps
    per edge of at most _WALK_STEP.  Raises ValueError if the boundary
    runs too close to a zero for the walk to be trustworthy: if a sample
    lands within |f| < 1e-12 of one, or if the double root at 0 lies
    nearer an edge than a quarter of that edge's first step or
    _ORIGIN_CLEARANCE, where one step can turn the phase by a full turn
    unseen.
    """
    corners = [complex(region.x0, region.y0), complex(region.x1, region.y0),
               complex(region.x1, region.y1), complex(region.x0, region.y1),
               complex(region.x0, region.y0)]
    total = 0.0
    budget = 200000
    for a, b in zip(corners[:-1], corners[1:]):
        n = max(_EDGE_STEPS, math.ceil(abs(b - a) / _WALK_STEP))
        # the point of the edge nearest 0
        near = complex(min(max(0.0, min(a.real, b.real)), max(a.real, b.real)),
                       min(max(0.0, min(a.imag, b.imag)), max(a.imag, b.imag)))
        limit = max(abs(b - a) / n / 4.0, _ORIGIN_CLEARANCE)
        if abs(near) < limit:
            raise ValueError(f"the double root at 0 lies {abs(near):.3g} from "
                             f"the contour, nearer than the walk resolves "
                             f"({limit:.3g})")
        ts = np.linspace(0.0, 1.0, n + 1)
        pts = a + (b - a) * ts
        vals = eq.scaled_value(pts)
        stack = [(pts[i], pts[i + 1], vals[i], vals[i + 1]) for i in range(n)]
        while stack:
            budget -= 1
            if budget <= 0:
                raise RuntimeError("argument-principle walk did not converge")
            za, zb, fa, fb = stack.pop()
            if min(abs(fa), abs(fb)) < 1e-12:
                raise ValueError("characteristic zero too close to the contour")
            dphi = np.angle(fb / fa)
            if abs(dphi) > 0.8 and abs(zb - za) > 1e-12:
                zm = 0.5 * (za + zb)
                fm = complex(eq.scaled_value(zm))
                stack.append((za, zm, fa, fm))
                stack.append((zm, zb, fm, fb))
            else:
                total += dphi
    winding = total / (2.0 * math.pi)
    count = int(round(winding))
    if abs(winding - count) > 0.05:
        raise RuntimeError(f"non-integer winding {winding!r}; contour too coarse")
    return count


# ---------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """First `count` positive imaginary parts eta_n with their roots."""

    beta: float
    etas: tuple[float, ...]
    roots: tuple[complex, ...]
    slope: float
    intercept: float
    r_squared: float


def spectrum(beta: float, count: int = 10, audit: bool = True) -> Spectrum:
    """eta_n ladder: imaginary parts of the first `count` upper roots.

    The roots are those of branches 1..count of the census (see
    find_roots), which sit near Im z = 2 pi n + O(1).  The gaps between
    neighbours must lie in [3, 9.5]; an argument-principle audit of the
    strip 0.5 <= Im z <= eta_count + pi confirms that no root was skipped,
    and a least-squares line eta_n ~ slope*n + intercept quantifies the
    (nearly exact) linear dependence on n.  The ladder is a property of
    f alone, so it is identical for every beta.
    """
    eq = CharEq(beta)
    upper = _upper_branches(eq, range(1, count + 1))
    found = [upper[n].value for n in range(1, count + 1)]
    gaps = np.diff([w.imag for w in found])
    if np.any(gaps < 3.0) or np.any(gaps > 9.5):
        raise RuntimeError(f"spectrum branches misordered at beta={beta}")
    if audit:
        lo, hi = 0.5, found[-1].imag + math.pi
        xmax = max(w.real for w in found) + 3.0
        n_box = argument_principle_count(eq, Region(-3.0, xmax, lo, hi))
        if n_box != count:
            raise RuntimeError(
                f"audit mismatch: {n_box} roots in the strip, expected {count}")
    etas = np.array([w.imag for w in found])
    ns = np.arange(1, count + 1, dtype=float)
    a = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(a, etas, rcond=None)
    pred = a @ coef
    ss_res = float(np.sum((etas - pred) ** 2))
    ss_tot = float(np.sum((etas - etas.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return Spectrum(beta=beta, etas=tuple(float(e) for e in etas),
                    roots=tuple(found), slope=float(coef[0]),
                    intercept=float(coef[1]), r_squared=r2)


# ---------------------------------------------------------------------
# Domain coloring
# ---------------------------------------------------------------------

def render_domain_coloring(eq: CharEq, region: Region,
                           size: tuple[int, int]) -> np.ndarray:
    """Phase portrait of f over region as an (H, W, 3) uint8 image.

    Hue encodes the phase of the rescaled value e^(-max(Re z, 0)) f;
    luminance ramps between integer-|f| level curves so every
    unit-modulus band reads as one stripe and zeros show as full hue
    fans.  Pixel centers sample the region with row 0 at Im = y1 (image
    convention).  f is the same for every drift state (see CharEq), so
    eq only tags it.

    The grid is separable: numpy's complex expm1 is built from libm's
    expm1(x), exp(x), cos(y), sin(y) and sin(y/2), so those are taken
    once per column and per row (_grid_values) and f and its rescaled
    value come out bit for bit as CharEq.value and CharEq.scaled_value
    give them, without a complex exponential per pixel.  The coloring
    then runs in blocks of _RENDER_ROWS rows written into one image, so
    its float temporaries stay small.  Pure elementwise float math:
    byte-identical output for identical inputs.
    """
    w, h = size
    if w < 1 or h < 1:
        raise ValueError(f"bad image size {size!r}")
    xs = region.x0 + (np.arange(w) + 0.5) * (region.x1 - region.x0) / w
    ys = region.y1 - (np.arange(h) + 0.5) * (region.y1 - region.y0) / h
    cols = _column_factors(xs)
    image = np.empty((h, w, 3), dtype=np.uint8)
    for r0 in range(0, h, _RENDER_ROWS):
        rows = slice(r0, r0 + _RENDER_ROWS)
        with np.errstate(all="ignore"):
            v, f = _grid_values(cols, ys[rows])
            hue = (np.angle(f) / (2.0 * math.pi)) % 1.0
            mag = np.abs(v)
            band = np.where(np.isfinite(mag) & (mag < 2.0 ** 52),
                            mag - np.floor(mag), 1.0)
        bad = ~np.isfinite(f)
        hue = np.where(bad, 0.0, hue)
        val = np.where(bad, 1.0, 0.55 + 0.40 * band)
        sat = np.where(bad, 0.0, 0.88)
        rgb = _hsv_to_rgb(hue, sat, val)
        image[rows] = np.clip(np.floor(rgb * 256.0), 0.0, 255.0)
    return image


def _libm(fn, t: float) -> float:
    """fn(t) from the C library, inf where math raises OverflowError."""
    try:
        return fn(t)
    except OverflowError:
        return math.inf


def _column_factors(xs: np.ndarray):
    """Per-column factors of f on the grid xs x ys: (xs, expm1(xs),
    exp(xs), e^(-max(xs, 0)), Re z >= _SCALE_SWITCH).

    The exponentials come from libm through `math`, as numpy's complex
    expm1 takes them; numpy's own float64 exp and expm1 differ from libm
    in last bits.  The damping factor is scaled_value's, so it is numpy's.
    """
    em1 = np.array([_libm(math.expm1, x) for x in xs.tolist()])
    ex = np.array([_libm(math.exp, x) for x in xs.tolist()])
    damp = np.exp(-np.maximum(xs, 0.0))
    return xs, em1, ex, damp, ~(xs < _SCALE_SWITCH)


def _grid_values(cols, ys: np.ndarray):
    """(f(z), e^(-max(Re z, 0)) f(z)) on z = xs + i ys, one row per y.

    Bit for bit CharEq.value(z) and CharEq.scaled_value(z).  numpy's
    complex expm1(x + iy) is expm1(x) cos(y) - 2 sin(y/2)^2
    + i exp(x) sin(y), each factor a libm call, so the factors are
    taken once per column (_column_factors) and per row here, and only
    the multiplies and adds run per pixel.  Columns past _SCALE_SWITCH
    take scaled_value's split form, where exp(z - x) cannot overflow.
    xs and ys hold no -0.0, as the render lays them out: the grid z
    would turn it into +0.0.
    """
    xs, em1, ex, damp, far = cols
    # libm, as for the columns: numpy's float64 sin and cos need not match
    cos = np.array([math.cos(y) for y in ys.tolist()])[:, None]
    sin = np.array([math.sin(y) for y in ys.tolist()])[:, None]
    half = np.array([math.sin(y / 2) for y in ys.tolist()])[:, None]
    z = xs[None, :] + 1j * ys[:, None]
    e = np.empty_like(z)
    np.subtract(em1 * cos, 2.0 * half * half, out=e.real)
    np.multiply(ex, sin, out=e.imag)
    v = z * z
    v += z
    v -= e
    f = v * damp
    if far.any():
        zf, x = z[:, far], xs[far]
        f[:, far] = (zf * zf + zf + 1.0) * damp[far] - np.exp(zf - x)
    return v, f


# (r, g, b) of hue sector floor(6 h) mod 6, as indices into (v, p, q, t)
_HSV_SECTORS = np.array([[0, 3, 1], [2, 0, 1], [1, 0, 3],
                         [1, 2, 0], [3, 1, 0], [0, 1, 2]])


def _hsv_to_rgb(h, s, v):
    """(..., 3) RGB of same-shape h, s, v arrays, h in [0, 1]."""
    i = np.floor(h * 6.0)
    fr = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * fr)
    t = v * (1.0 - s * (1.0 - fr))
    # one flat take: pixel k's candidates sit at 4k .. 4k + 3
    pick = _HSV_SECTORS.take(i.astype(int) % 6, axis=0)
    pick += np.arange(0, 4 * h.size, 4).reshape(h.shape + (1,))
    return np.stack([v, p, q, t], axis=-1).take(pick)


def write_ppm(path: str, image: np.ndarray) -> None:
    """Binary PPM (P6, 8-bit, no comment lines) for byte-exact goldens."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
