"""Trajectory containers, seed histories and the cubic interpolant.

A Trajectory is an immutable record of time-ordered knots (t, x, beta,
beta_dot) plus dense evaluators.  Position uses cubic Hermite data
(x, beta) so the interpolant's derivative at every knot equals the
stored velocity by construction; velocity uses (beta, beta_dot) the
same way, and acceleration is the derivative of the velocity channel.

HermiteSpline is the package's one piecewise cubic; pchip builds it as
the monotone PCHIP of Fritsch & Carlson (1980, SIAM J. Numer. Anal.
17:238) that the marchers resample with.

A SeedHistory prescribes the past of the particle on [-span, 0], which
the delay equation needs before it can march forward.  Histories are
analytic: they can be sampled at any time without interpolation error.

Units throughout: lengths in d, times in d/c, so velocity is beta and
acceleration is beta_dot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import lorentz_gamma


class TrajectoryDomainError(ValueError):
    """Evaluation outside the trajectory's covered time span."""


class SuperluminalError(ValueError):
    """|beta| reached 1 where the model requires subluminal motion."""


class HermiteSpline:
    """Piecewise cubic through values y with slopes dydx at knots x.

    Interval [x_i, x_i+1) holds the rows (c0, c1, c2, c3) of
    c0 s^3 + c1 s^2 + c2 s + c3, s = t - x_i; the last interval is
    closed and the end cubics extrapolate.  Values are power sums with
    s^k built by repeated multiplication, not Horner: the reference
    order, which the tests hold bit for bit.  x must increase strictly.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, dydx: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t,
                           dydx[:-1], y[:-1]))

    def interval(self, t):
        """Index i of the interval [x_i, x_i+1) that holds each t, the end
        intervals taking everything beyond them."""
        return np.clip(np.searchsorted(self.x, t, side="right") - 1,
                       0, self.x.size - 2)

    def cubics(self, i):
        """The rows (4, n) and left knots of intervals i, for cubic_value."""
        return np.take(self.c, i, axis=1), self.x[i]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return cubic_value(*self.cubics(self.interval(t)), t)

    def derivative(self, t):
        """First derivative: the rows (3 c0, 2 c1, c2), same power sum."""
        t = np.asarray(t, dtype=float)
        return cubic_slope(*self.cubics(self.interval(t)), t)


def cubic_value(c, knot, t):
    """c0 s^3 + c1 s^2 + c2 s + c3 at s = t - knot, for rows c and left
    knots gathered by HermiteSpline.cubics."""
    c0, c1, c2, c3 = c
    s = t - knot
    s2 = s * s
    # the sums start from +0.0, as the reference's do, so that a sum
    # of -0.0 terms comes out +0.0 there too
    return 0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def cubic_slope(c, knot, t):
    """The derivative 3 c0 s^2 + 2 c1 s + c2 of cubic_value's cubic."""
    c0, c1, c2, _ = c
    s = t - knot
    return 0.0 + c2 + 2.0 * c1 * s + 3.0 * c0 * (s * s)


def _pchip_end(h0, h1, m0, m1):
    """Three-point end slope, clipped to keep the end segment's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x: np.ndarray, y: np.ndarray) -> HermiteSpline:
    """Monotone cubic through (x, y), at least three knots.  Its knot
    slopes are the weighted harmonic mean of the neighbouring secants,
    or zero where they differ in sign or either is flat."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return HermiteSpline(x, y, d)


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered kinematic samples with Hermite dense output."""

    t: np.ndarray
    x: np.ndarray
    beta: np.ndarray
    beta_dot: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("t", "x", "beta", "beta_dot"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.size != self.t.size:
                raise ValueError(f"knot array {name} has wrong shape")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in knot array {name}")
        if self.t.size < 2:
            raise ValueError("a trajectory needs at least two knots")
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("knot times must be strictly increasing")
        if np.any(np.abs(self.beta) >= 1.0):
            raise SuperluminalError("|beta| >= 1 at a trajectory knot")
        for arr in (self.t, self.x, self.beta, self.beta_dot):
            arr.setflags(write=False)
        object.__setattr__(self, "_x_spline",
                           HermiteSpline(self.t, self.x, self.beta))
        object.__setattr__(self, "_b_spline",
                           HermiteSpline(self.t, self.beta, self.beta_dot))

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        t0, t1 = self.t0, self.t1
        if (t < t0 - 1e-12).any() or (t > t1 + 1e-12).any():
            raise TrajectoryDomainError(
                f"time outside covered span [{t0}, {t1}]")
        return t.clip(t0, t1)

    def position(self, t):
        return self._x_spline(self._check_domain(t))

    def interval(self, t):
        """Knot interval index of each t; every channel shares the knots."""
        return self.locate(t)[1]

    def locate(self, t):
        """Each t clipped to the span, as the evaluators read it, and its
        knot interval: with the cubics of those intervals, cubic_value
        gives what position and velocity give."""
        t = self._check_domain(t)
        return t, self._x_spline.interval(t)

    def position_cubics(self, i):
        """The position cubics of knot intervals i and their left knots;
        cubic_value evaluates them at times inside those intervals."""
        return self._x_spline.cubics(i)

    def velocity_cubics(self, i):
        """The velocity cubics of knot intervals i and their left knots:
        cubic_value gives beta and cubic_slope beta_dot there."""
        return self._b_spline.cubics(i)

    def velocity(self, t):
        return self._b_spline(self._check_domain(t))

    def acceleration(self, t):
        return self._b_spline.derivative(self._check_domain(t))

    def window(self, t_lo: float, t_hi: float) -> "Trajectory":
        """Knot subrange with t_lo <= t <= t_hi (metadata shared)."""
        sel = (self.t >= t_lo - 1e-12) & (self.t <= t_hi + 1e-12)
        if np.count_nonzero(sel) < 2:
            raise ValueError("window contains fewer than two knots")
        return Trajectory(self.t[sel].copy(), self.x[sel].copy(),
                          self.beta[sel].copy(), self.beta_dot[sel].copy(),
                          dict(self.metadata))


# ---------------------------------------------------------------------
# Seed histories
# ---------------------------------------------------------------------

# The kick is the second derivative of a C-infinity compactly supported
# bump: acceleration integrates to zero velocity AND zero displacement,
# so the history ends in exact quiet rest (or exact uniform drift) and
# the continuation across t = 0 stays smooth at every order.  Support
# sits strictly inside the final d/c of history, with margins, so the
# state at t = 0 is identically the unperturbed one.
_BUMP_CENTER = -0.5
_BUMP_HALFWIDTH = 0.4


def _bump_raw(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / ((1.0 - ui) * (1.0 + ui)))
    return out


def _bump_d1(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / w) * (-2.0 * ui / (w * w))
    return out


def _bump_d2(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = (1.0 - ui) * (1.0 + ui)
    out[inside] = np.exp(-1.0 / w) * (
        4.0 * ui * ui / w ** 4 - 2.0 * (1.0 + 3.0 * ui * ui) / w ** 3)
    return out


@lru_cache(maxsize=1)
def _bump_accel_peak() -> float:
    """max |bump''| over the support, on a fixed fine grid (the
    normalization convention for kick amplitudes; deterministic).
    Computed on the first kick that needs it, not at import."""
    u = np.linspace(-1.0, 1.0, 8193)
    return float(np.max(np.abs(_bump_d2(u))))


@dataclass(frozen=True)
class SeedHistory:
    """Prescribed past motion on [-span, 0].

    kind is one of rest_kick, uniform_motion, uniform_kick, mode_kick.
    amplitude is the peak |beta_dot| of the kick (0 for none); beta is
    the underlying drift.  The history reaches back span = max(3, 2.5
    gamma), past twice the delay gamma.  Analytic channels are exposed
    as vectorized callables of time.

    The bump kinds perturb with a compactly supported C-infinity pulse.
    mode_kick instead perturbs along the dominant eigenfunction of the
    motion equation linearized about the drift, A e^{rate t}: the one
    seed shape that excites the slow unstable branch alone.  A generic
    smooth pulse also loads the tower of faster oscillatory branches,
    which outrun the dominant one long before it could be measured.
    """

    kind: str
    amplitude: float
    beta: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1.0:
            raise SuperluminalError(f"seed drift beta = {self.beta!r}")

    @property
    def span(self) -> float:
        return max(3.0, 2.5 * lorentz_gamma(self.beta))

    @classmethod
    def rest_kick(cls, amplitude: float) -> "SeedHistory":
        return cls(kind="rest_kick", amplitude=float(amplitude))

    @classmethod
    def uniform_motion(cls, beta: float) -> "SeedHistory":
        return cls(kind="uniform_motion", amplitude=0.0, beta=beta)

    @classmethod
    def uniform_kick(cls, beta: float, amplitude: float) -> "SeedHistory":
        return cls(kind="uniform_kick", amplitude=float(amplitude), beta=beta)

    @classmethod
    def mode_kick(cls, beta: float, amplitude: float) -> "SeedHistory":
        """Kick along the dominant unstable mode of the drift state.

        The offset channels are A e^{rate t} with rate the positive
        real characteristic root in lab time and A = amplitude / rate^2,
        so amplitude is again the peak |beta_dot| of the perturbation
        (reached at t = 0).  The history is an exact solution of the
        linearized motion equation; nothing else is excited above
        O(amplitude^2).
        """
        from .roots import dominant_real_root
        rate = dominant_real_root(beta) / lorentz_gamma(beta)
        return cls(kind="mode_kick", amplitude=float(amplitude),
                   beta=beta, rate=rate)

    def _scale(self) -> float:
        return self.amplitude * _BUMP_HALFWIDTH ** 2 / _bump_accel_peak()

    def _mode_amp(self) -> float:
        return self.amplitude / self.rate ** 2

    def velocity(self, t):
        return self.beta + self.offset_velocity(t)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "mode_kick":
            return self._mode_amp() * self.rate ** 2 * np.exp(self.rate * t)
        u = (t - _BUMP_CENTER) / _BUMP_HALFWIDTH
        return self._scale() * _bump_d2(u) / _BUMP_HALFWIDTH ** 2

    def offset_position(self, t):
        """x(t) - beta*t, computed without the drift term.

        The integrator marches in drift-comoving coordinates: absolute
        positions grow linearly and their floating-point granularity
        would swamp a 1e-6 kick, while the offset stays near the kick
        scale for near-uniform motion.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "mode_kick":
            return self._mode_amp() * np.exp(self.rate * t)
        u = (t - _BUMP_CENTER) / _BUMP_HALFWIDTH
        return self._scale() * _bump_raw(u)

    def offset_velocity(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "mode_kick":
            return self._mode_amp() * self.rate * np.exp(self.rate * t)
        u = (t - _BUMP_CENTER) / _BUMP_HALFWIDTH
        return self._scale() * _bump_d1(u) / _BUMP_HALFWIDTH

    def describe(self) -> str:
        if self.kind == "mode_kick":
            return (f"mode_kick(amp={self.amplitude:.6g},"
                    f"beta={self.beta:.6g},rate={self.rate:.6g})")
        return f"{self.kind}(amp={self.amplitude:.6g},beta={self.beta:.6g})"
