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

z = 0 is always a double root (position offsets and drift changes form
the neutral family); there is one positive real root near 9/5 and
conjugate pairs marching up the imaginary axis with real parts growing
like 2*ln|Im z|.

Numerics notes:

* Near z = 0 the textbook form loses all significance to cancellation;
  evaluation uses z^2 + z - expm1(z), which is exact in the small-|z|
  limit.
* For Re z large, e^z overflows double precision; Newton steps and the
  reported residual therefore use the rescaled value e^(-max(Re z, 0))
  * f(z), which shares f's zeros and phase and keeps |.| representable.
  Residuals quoted anywhere in this module are of the rescaled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NEWTON_MAX_ITER = 50
RESIDUAL_TARGET = 1e-12     # polish goal
RESIDUAL_ACCEPT = 1e-10     # hard ceiling for a stored root
DEDUPE_RADIUS = 1e-6
MULTIPLICITY_FPRIME_TOL = 1e-6

# Re z beyond which evaluation switches to the rescaled form
_SCALE_SWITCH = 700.0


@dataclass(frozen=True)
class CharEq:
    """Characteristic quasi-polynomial of a drift state.

    beta tags the physical state the equation was linearized about;
    the function itself is beta-independent in the dilated variable
    (see the module notes), so beta only matters when converting roots
    to lab-frame rates, as chareq_uniform_eval does.
    """

    beta: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1.0:
            raise ValueError(f"|beta| must be < 1, got {self.beta!r}")

    def value(self, z):
        """f(z); cancellation-safe near 0, may overflow for Re z >~ 709."""
        z = np.asarray(z, dtype=complex)
        return z * z + z - np.expm1(z)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        return 2.0 * z + 1.0 - np.exp(z)

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


def chareq_uniform_eval(lam, beta: float = 0.0):
    """Characteristic function in the lab-frame rate variable lambda.

    gamma^2 lambda^2 + gamma lambda + 1 - e^(lambda gamma): identical
    to f(lambda * gamma), which is how it is evaluated.  All drift
    dependence is the time dilation of the argument.
    """
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    return CharEq(beta).value(np.asarray(lam, dtype=complex) * gamma)


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

    def contains(self, z, pad: float = 0.0) -> bool:
        return (self.x0 - pad <= z.real <= self.x1 + pad
                and self.y0 - pad <= z.imag <= self.y1 + pad)

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
    iterations: int
    multiplicity: int = 1


@dataclass(frozen=True)
class RootSet:
    eq: CharEq
    region: Region
    grid_density: float
    roots: tuple[Root, ...]
    seeds_total: int
    seeds_converged: int

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.roots], dtype=complex)

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def find_roots(eq: CharEq, region: Region, grid_density: float = 10.0,
               max_iter: int = NEWTON_MAX_ITER) -> RootSet:
    """All roots of eq inside region via Newton from a uniform seed grid.

    Seeds at `grid_density` per unit length each run `max_iter` damped-
    free Newton steps; converged points are deduplicated within
    DEDUPE_RADIUS keeping the smaller residual, polished, conjugate-
    closed, and sorted by (Re, Im).  Multiplicity 2 is flagged where
    |f'| collapses at the root (the origin's double root).
    """
    nx = max(int(round((region.x1 - region.x0) * grid_density)), 2)
    ny = max(int(round((region.y1 - region.y0) * grid_density)), 2)
    xs = np.linspace(region.x0, region.x1, nx)
    ys = np.linspace(region.y0, region.y1, ny)
    z = (xs[None, :] + 1j * ys[:, None]).ravel().astype(complex)
    seeds_total = z.size

    iters = np.full(z.shape, -1, dtype=np.int32)
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            fz = eq.scaled_value(z)
            x = np.maximum(z.real, 0.0)
            fpz = (2.0 * z + 1.0) * np.exp(-x) - np.exp(z - x)
            step = fz / fpz
            bad = ~np.isfinite(step)
            step = np.where(bad, 0.0, step)
            z = z - step
            hit = (np.abs(fz) < RESIDUAL_TARGET) & (iters < 0)
            iters[hit] = it
        res = eq.residual(z)

    good = np.isfinite(z) & np.isfinite(res) & (res < RESIDUAL_ACCEPT)
    zg, rg, ig = z[good], res[good], iters[good]
    inside = np.array([region.contains(w, pad=1e-9) for w in zg]) if zg.size else \
        np.zeros(0, dtype=bool)
    zg, rg, ig = zg[inside], rg[inside], ig[inside]
    seeds_converged = int(np.count_nonzero(good))

    # compress near-identical converged values, then polish BEFORE the
    # distance dedupe: near a double root Newton stalls in an annulus
    # wider than DEDUPE_RADIUS while the residual is already tiny, so
    # deduplicating raw endpoints would keep dozens of copies that all
    # collapse onto the same zero once polished.
    if zg.size:
        key = np.round(zg.real, 8) + 1j * np.round(zg.imag, 8)
        _, first = np.unique(key, return_index=True)
        order = first[np.argsort(rg[first], kind="stable")]
        coarse = []
        for idx in order:
            w = zg[idx]
            if all(abs(w - u.value) > DEDUPE_RADIUS for u in coarse):
                coarse.append(Root(complex(w), float(rg[idx]),
                                   int(ig[idx]) if ig[idx] >= 0 else max_iter))
    else:
        coarse = []

    candidates = sorted((_polish(eq, r) for r in coarse),
                        key=lambda r: r.residual)
    polished: list[Root] = []
    for r in candidates:
        if all(abs(r.value - u.value) > DEDUPE_RADIUS for u in polished):
            polished.append(r)

    # conjugate closure: real-coefficient f pairs complex roots
    closed: list[Root] = list(polished)
    for r in polished:
        if abs(r.value.imag) > DEDUPE_RADIUS:
            conj = r.value.conjugate()
            if region.contains(conj, pad=1e-9) and \
                    all(abs(conj - q.value) > DEDUPE_RADIUS for q in closed):
                closed.append(Root(conj, r.residual, r.iterations, r.multiplicity))

    closed.sort(key=lambda r: (r.value.real, r.value.imag))
    return RootSet(eq=eq, region=region, grid_density=grid_density,
                   roots=tuple(closed), seeds_total=seeds_total,
                   seeds_converged=seeds_converged)


def _polish(eq: CharEq, root: Root) -> Root:
    z = root.value
    res = root.residual
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
    fp_mag = abs(complex(
        (2.0 * z + 1.0) * math.exp(-max(z.real, 0.0))
        - complex(np.exp(z - max(z.real, 0.0)))))
    mult = 2 if fp_mag < MULTIPLICITY_FPRIME_TOL else 1
    return Root(complex(z), float(res), root.iterations, mult)


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
        if s(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------
# Argument-principle audit
# ---------------------------------------------------------------------

def argument_principle_count(eq: CharEq, region: Region,
                             base_samples: int = 64) -> int:
    """Zeros (with multiplicity) inside region by boundary phase walk.

    Walks the rectangle boundary accumulating the wrapped phase change
    of the rescaled characteristic value (rescaling by a positive real
    factor leaves the phase untouched), adaptively bisecting any segment
    whose phase jump exceeds ~0.8 rad.  Raises if the boundary runs too
    close to a zero for the walk to be trustworthy.
    """
    corners = [complex(region.x0, region.y0), complex(region.x1, region.y0),
               complex(region.x1, region.y1), complex(region.x0, region.y1),
               complex(region.x0, region.y0)]
    total = 0.0
    budget = 200000
    for a, b in zip(corners[:-1], corners[1:]):
        n = max(base_samples, 8)
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

    Each branch n sits near Im z = 2 pi n + O(1); Newton from the
    asymptotic seed x = ln(|z|^2), y = 2 pi n + 2.2 converges in a
    handful of steps.  An argument-principle audit confirms no branch
    was skipped, and a least-squares line eta_n ~ slope*n + intercept
    quantifies the (nearly exact) linear dependence on n.  The ladder
    is a property of f alone, so it is identical for every beta.
    """
    eq = CharEq(beta)
    found: list[complex] = []
    for n in range(1, count + 1):
        y = 2.0 * math.pi * n + 2.2
        x = math.log(y * y + 2.0)
        z = complex(x, y)
        z = _branch_newton(eq, z)
        if z is None or abs(z.imag - y) > math.pi:
            z = _branch_rescue(eq, x, y)
        if z is None:
            raise RuntimeError(f"spectrum branch {n} did not converge (beta={beta})")
        found.append(z)
    found.sort(key=lambda w: w.imag)
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


def _branch_newton(eq: CharEq, z: complex, iters: int = 60) -> complex | None:
    for _ in range(iters):
        with np.errstate(all="ignore"):
            f = complex(eq.scaled_value(z))
            x = max(z.real, 0.0)
            fp = (2.0 * z + 1.0) * math.exp(-x) - complex(np.exp(z - x))
        if not (math.isfinite(fp.real) and math.isfinite(fp.imag)) or fp == 0:
            return None
        z = z - f / fp
    return z if float(eq.residual(z)) < RESIDUAL_TARGET else None


def _branch_rescue(eq: CharEq, x0: float, y0: float) -> complex | None:
    xs = np.linspace(x0 - 2.5, x0 + 2.5, 26)
    ys = np.linspace(y0 - math.pi, y0 + math.pi, 26)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            f = eq.scaled_value(z)
            x = np.maximum(z.real, 0.0)
            fp = (2.0 * z + 1.0) * np.exp(-x) - np.exp(z - x)
            step = f / fp
            z = z - np.where(np.isfinite(step), step, 0.0)
        res = eq.residual(z)
    ok = np.isfinite(res) & (res < RESIDUAL_TARGET) & (np.abs(z.imag - y0) < math.pi)
    if not np.any(ok):
        return None
    cand = z[ok]
    return complex(cand[np.argmin(np.abs(cand - complex(x0, y0)))])


# ---------------------------------------------------------------------
# Domain coloring
# ---------------------------------------------------------------------

def render_domain_coloring(eq: CharEq, region: Region,
                           size: tuple[int, int]) -> np.ndarray:
    """Phase portrait of f over region as an (H, W, 3) uint8 image.

    Hue encodes the phase of f; luminance ramps between integer-|f|
    level curves so every unit-modulus band reads as one stripe and
    zeros show as full hue fans.  Pixel centers sample the region with
    row 0 at Im = y1 (image convention).  Pure elementwise float math:
    byte-identical output for identical inputs.
    """
    w, h = size
    if w < 1 or h < 1:
        raise ValueError(f"bad image size {size!r}")
    xs = region.x0 + (np.arange(w) + 0.5) * (region.x1 - region.x0) / w
    ys = region.y1 - (np.arange(h) + 0.5) * (region.y1 - region.y0) / h
    z = xs[None, :] + 1j * ys[:, None]
    with np.errstate(all="ignore"):
        f = eq.scaled_value(z)
        hue = (np.angle(f) / (2.0 * math.pi)) % 1.0
        mag = np.abs(eq.value(z))
    band = np.where(np.isfinite(mag) & (mag < 2.0 ** 52), mag - np.floor(mag), 1.0)
    val = 0.55 + 0.40 * band
    sat = np.full_like(val, 0.88)
    bad = ~np.isfinite(f)
    hue = np.where(bad, 0.0, hue)
    val = np.where(bad, 1.0, val)
    sat = np.where(bad, 0.0, sat)
    rgb = _hsv_to_rgb(hue, sat, val)
    return np.clip(np.floor(rgb * 256.0), 0.0, 255.0).astype(np.uint8)


def _hsv_to_rgb(h, s, v):
    i = np.floor(h * 6.0)
    fr = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * fr)
    t = v * (1.0 - s * (1.0 - fr))
    i = i.astype(int) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def write_ppm(path: str, image: np.ndarray) -> None:
    """Binary PPM (P6, 8-bit, no comment lines) for byte-exact goldens."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("image must be (H, W, 3) uint8")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
