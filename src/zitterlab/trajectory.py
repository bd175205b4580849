"""Trajectory containers, seed histories and the cubic interpolant.

A Trajectory is an immutable record of time-ordered knots (t, x, beta,
beta_dot) plus dense evaluators.  Position uses cubic Hermite data
(x, beta) so the interpolant's derivative at every knot equals the
stored velocity by construction; velocity uses (beta, beta_dot) the
same way, and acceleration is the derivative of the velocity channel.

_hermite_cubics forms the package's one piecewise cubic and _interval
is its one interval rule.  A Trajectory forms its two channels' cubics
once, when it is built.  The marchers resample with the monotone PCHIP
of Fritsch & Carlson (1980, SIAM J. Numer. Anal. 17:238) through
pchip_at, which takes its knot slopes from _pchip_slopes and forms
cubics only on the intervals that its grid rows fall in.

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

from .model import dominant_real_root, lorentz_gamma


class TrajectoryDomainError(ValueError):
    """Evaluation outside the trajectory's covered time span."""


class SuperluminalError(ValueError):
    """|beta| reached 1 where the model requires subluminal motion."""


def _hermite_cubics(dx, slope, d0, d1, y0):
    """The rows (c0, c1, c2, c3) of the cubics c0 s^3 + c1 s^2 + c2 s +
    c3, s = t - x_i, on intervals [x_i, x_i+1) of widths dx and secants
    slope, through values y0 with slopes d0 at their left knots and
    slopes d1 at their right ones."""
    t = (d0 + d1 - 2 * slope) / dx
    return t / dx, (slope - d0) / dx - t, d0, y0


def _interval(x, t):
    """Index i of the interval [x_i, x_i+1) of the increasing knots x
    that holds each t: the count of inner knots at or below t, so the
    end intervals take everything beyond them and NaN the last."""
    return x[1:-1].searchsorted(t, side="right")


def cubic_value(c, knot, t):
    """c0 s^3 + c1 s^2 + c2 s + c3 at s = t - knot, for rows c of
    _hermite_cubics and their left knots.  A power sum with s^k built
    by repeated multiplication, not Horner: the reference order, which
    the tests hold bit for bit."""
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


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """PCHIP's knot slopes from the knot spacings h and the secants m:
    the weighted harmonic mean of the neighbouring secants, or zero
    where they differ in sign or either is flat.  Flat secants divide
    by zero; call under np.errstate(divide="ignore", invalid="ignore")."""
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    sign = np.sign(m)
    # a flat secant differs in sign from a sloped one, so only a flat
    # pair needs its own test
    flat = (sign[1:] != sign[:-1]) | (sign[1:] == 0)
    d = np.empty(h.size + 1)
    whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def pchip_at(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The monotone cubic through (x, y), at least three knots, with
    _pchip_slopes' knot slopes, at times t (at least one, in increasing
    order): _hermite_cubics forms the cubics only on the intervals from
    the first t's to the last t's, and cubic_value sums them.  Call under
    np.errstate(divide="ignore", invalid="ignore"), as _pchip_slopes."""
    h = x[1:] - x[:-1]      # np.diff, without its call overhead
    m = (y[1:] - y[:-1]) / h
    d = _pchip_slopes(h, m)
    i = _interval(x, t)
    lo, hi = int(i[0]), int(i[-1]) + 1
    c = _hermite_cubics(h[lo:hi], m[lo:hi], d[lo:hi], d[lo + 1:hi + 1],
                        y[lo:hi])
    j = i - lo
    return cubic_value([ck[j] for ck in c], x[lo:hi][j], t)


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
        h = np.diff(self.t)
        if not np.all(h > 0):
            raise ValueError("knot times must be strictly increasing")
        if np.any(np.abs(self.beta) >= 1.0):
            raise SuperluminalError("|beta| >= 1 at a trajectory knot")
        for arr in (self.t, self.x, self.beta, self.beta_dot):
            arr.setflags(write=False)
        for name, y, dydx in (("_x_cubics", self.x, self.beta),
                              ("_b_cubics", self.beta, self.beta_dot)):
            object.__setattr__(self, name, np.stack(_hermite_cubics(
                h, np.diff(y) / h, dydx[:-1], dydx[1:], y[:-1])))

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def locate(self, t):
        """Each t clipped to the span, as the evaluators read it, and its
        knot interval: with the cubics of those intervals, cubic_value
        gives what position and velocity give.  A t more than 1e-12
        outside the span, or NaN, raises TrajectoryDomainError."""
        t = np.asarray(t, dtype=float)
        t0, t1 = self.t0, self.t1
        if not ((t >= t0 - 1e-12) & (t <= t1 + 1e-12)).all():
            raise TrajectoryDomainError(
                f"time outside covered span [{t0}, {t1}]")
        t = t.clip(t0, t1)
        return t, _interval(self.t, t)

    def position_cubics(self, i):
        """The position cubics of knot intervals i and their left knots;
        cubic_value evaluates them at times inside those intervals."""
        return self._x_cubics.take(i, axis=1), self.t[i]

    def velocity_cubics(self, i):
        """The velocity cubics of knot intervals i and their left knots:
        cubic_value gives beta and cubic_slope beta_dot there."""
        return self._b_cubics.take(i, axis=1), self.t[i]

    def position(self, t):
        t, i = self.locate(t)
        return cubic_value(*self.position_cubics(i), t)

    def velocity(self, t):
        t, i = self.locate(t)
        return cubic_value(*self.velocity_cubics(i), t)

    def acceleration(self, t):
        t, i = self.locate(t)
        return cubic_slope(*self.velocity_cubics(i), t)


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


def _bump(u: np.ndarray) -> np.ndarray:
    """The bump exp(-1 / (1 - u^2)), zero where |u| >= 1, and its first
    two derivatives, stacked, from one exp."""
    out = np.zeros((3,) + u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    w = (1.0 - ui) * (1.0 + ui)
    e = np.exp(-1.0 / w)
    out[:, inside] = (e, e * (-2.0 * ui / (w * w)), e * (
        4.0 * ui * ui / w ** 4 - 2.0 * (1.0 + 3.0 * ui * ui) / w ** 3))
    return out


@lru_cache(maxsize=1)
def _bump_accel_peak() -> float:
    """max |bump''| over the support, on a fixed fine grid (the
    normalization convention for kick amplitudes; deterministic).
    Computed on the first kick that needs it, not at import."""
    u = np.linspace(-1.0, 1.0, 8193)
    return float(np.max(np.abs(_bump(u)[2])))


@dataclass(frozen=True)
class SeedHistory:
    """Prescribed past motion on [-span, 0].

    kind is one of rest_kick, uniform_motion, uniform_kick, mode_kick.
    amplitude is the peak |beta_dot| of the kick (0 for none); beta is
    the underlying drift.  The history reaches back span = max(3, 2.5
    gamma), past twice the delay gamma.  offsets() samples the analytic
    channels at any times.

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
        rate = dominant_real_root() / lorentz_gamma(beta)
        return cls(kind="mode_kick", amplitude=float(amplitude),
                   beta=beta, rate=rate)

    def offsets(self, t):
        """x(t) - beta t and its first two derivatives, computed without
        the drift term.

        The integrator marches in drift-comoving coordinates: absolute
        positions grow linearly and their floating-point granularity
        would swamp a 1e-6 kick, while the offset stays near the kick
        scale for near-uniform motion.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "mode_kick":
            amp = self.amplitude / self.rate ** 2
            e = np.exp(self.rate * t)
            return amp * e, amp * self.rate * e, amp * self.rate ** 2 * e
        scale = self.amplitude * _BUMP_HALFWIDTH ** 2 / _bump_accel_peak()
        b, b1, b2 = _bump((t - _BUMP_CENTER) / _BUMP_HALFWIDTH)
        return (scale * b, scale * b1 / _BUMP_HALFWIDTH,
                scale * b2 / _BUMP_HALFWIDTH ** 2)

    def describe(self) -> str:
        if self.kind == "mode_kick":
            return (f"mode_kick(amp={self.amplitude:.6g},"
                    f"beta={self.beta:.6g},rate={self.rate:.6g})")
        return f"{self.kind}(amp={self.amplitude:.6g},beta={self.beta:.6g})"
