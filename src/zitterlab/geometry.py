"""Retarded-time geometry of the dumbbell.

Working units: lengths in d, times in d/c.  A signal emitted at s
reaches the partner charge at t with t - s = r(s) and r^2 = l^2 + 1,
where l = x(t) - x(s) is the longitudinal advance and the 1 is the
fixed transverse separation.

For trajectories that actually solve the motion equation the delay
closes in the emitter's instantaneous state:

    r = gamma sqrt(1 + y) + gamma^4 beta beta_dot,    y = gamma^6 beta_dot^2
    l = gamma beta sqrt(1 + y) + gamma^4 beta_dot

These satisfy r^2 = l^2 + 1 identically and reduce to r = gamma at
beta_dot = 0.  They hold on-shell only, so both carry an explicit
on_shell flag; off-shell callers must solve the light-cone condition
implicitly (solve_retarded_time_many, a bracketed bisection whose
result is bit for bit that of 90 halvings while each element stops at
its own fixed point, or its single-time form solve_retarded_time),
which is also the audit oracle for the closed forms.

The closed forms are written once, in delay_closed over (beta,
beta_dot): floats give floats, arrays give arrays elementwise, and
the KinematicState functions call it.  A float input stays a Python
float through the body, because numpy's power ufunc is not libm's pow:
on arrays, even 0-d and one-element ones, g ** 6 can differ from the
float result in the last bit.  So array results agree with the float
ones to a couple of ulp, not bit for bit.

Sign convention: the radical in the l closed form is unsigned; the
signed version used here carries the sign of the longitudinal advance
(gamma beta sqrt(1+y) + gamma^4 beta_dot), which reproduces the
magnitude form and changes sign correctly through turning points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import KinematicState, lorentz_gamma
from .trajectory import Trajectory, cubic_value

LIGHTCONE_TOL = 1e-12


class HistoryTooShortError(ValueError):
    """The trajectory does not reach far enough into the past."""


class OffShellError(ValueError):
    """A closed delay form was requested without the on-shell pledge."""


def _require_on_shell(on_shell: bool):
    if not on_shell:
        raise OffShellError(
            "closed delay forms hold only on solutions of the motion "
            "equation; pass on_shell=True to assert that, or use "
            "solve_retarded_time")


def delay_closed(beta, beta_dot, *, on_shell: bool = True):
    """Closed forms of the emitter state (beta, beta_dot).

    Returns (gamma, y, sqrt(1 + y), r, l, r - l beta), as floats for
    float input or elementwise for arrays that broadcast; an array beta
    must be subluminal in every element.  Floats are never turned into
    arrays here (see the module notes on numpy's power).
    """
    _require_on_shell(on_shell)
    g = lorentz_gamma(beta)
    y = g ** 6 * beta_dot ** 2
    root = (np.sqrt if isinstance(y, np.ndarray) else math.sqrt)(1.0 + y)
    g4 = g ** 4
    r = g * root + g4 * beta * beta_dot
    l = g * beta * root + g4 * beta_dot
    return g, y, root, r, l, r - l * beta


def y_parameter(state: KinematicState) -> float:
    """The dimensionless acceleration combination gamma^6 beta_dot^2."""
    return delay_closed(state.beta, state.beta_dot)[1]


def retarded_r_closed(state: KinematicState, *, on_shell: bool = True) -> float:
    """Delay distance r (units d) from the emitter's state."""
    return delay_closed(state.beta, state.beta_dot, on_shell=on_shell)[3]


def retarded_l_closed(state: KinematicState, *, on_shell: bool = True) -> float:
    """Signed longitudinal advance l (units d) from the emitter's state."""
    return delay_closed(state.beta, state.beta_dot, on_shell=on_shell)[4]


def potential_denominator(state: KinematicState, *, on_shell: bool = True) -> float:
    """r - l*beta, the retarded potential's denominator (units d).

    Built from the two closed forms; algebraically equal to
    sqrt(1 + y)/gamma.
    """
    return delay_closed(state.beta, state.beta_dot, on_shell=on_shell)[5]


def variational_delay(state: KinematicState, delta_ydot: float,
                      delta_gamma: float) -> float:
    """First-order delay response about uniform motion.

    delta_r = gamma^4 beta delta_ydot + delta_gamma (units d; the two
    perturbations are the acceleration and Lorentz-factor variations).
    Requires beta_dot = 0: the linearization is taken about a uniform
    state.
    """
    if abs(state.beta_dot) > 1e-12:
        raise ValueError("variational_delay is defined about uniform motion "
                         f"(beta_dot = 0), got beta_dot = {state.beta_dot!r}")
    g = lorentz_gamma(state.beta)
    return g ** 4 * state.beta * delta_ydot + delta_gamma


@dataclass(frozen=True)
class RetardedGeometry:
    """Solved light-cone geometry at one observation time."""

    r: float
    l: float
    t_r: float

    def __post_init__(self):
        if self.r < 1.0 - 1e-9:
            raise ValueError(f"delay distance r = {self.r!r} below d")
        if abs(self.r * self.r - self.l * self.l - 1.0) > 1e-6:
            raise ValueError("r^2 = l^2 + 1 violated")


def solve_retarded_time(traj: Trajectory, t: float) -> RetardedGeometry:
    """The unique retarded time t_r with t - t_r = sqrt(dx^2 + 1).

    A one-element call into solve_retarded_time_many, with the delay r
    and the longitudinal advance l read off the solved t_r.
    """
    (t_r,) = solve_retarded_time_many(traj, np.array([float(t)]))
    return RetardedGeometry(r=float(t - t_r),
                            l=float(traj.position(t) - traj.position(t_r)),
                            t_r=float(t_r))


def _gap(t, x_t, s, x_s):
    """g = (t - s) - sqrt((x(t) - x(s))^2 + 1), positive while s lies
    inside the past light cone of (t, x(t))."""
    dx = x_t - x_s
    return (t - s) - np.sqrt(dx * dx + 1.0)


def _reach_back(traj: Trajectory, ts: np.ndarray,
                x_t: np.ndarray) -> np.ndarray:
    """Lower bracket ends: from one light crossing before each t, reach
    back twice as far until g > 0 or the history's start."""
    t0 = traj.t0
    lo = np.maximum(ts - 2.0, t0)
    g_lo = _gap(ts, x_t, lo, traj.position(lo))
    for _ in range(60):
        need = (g_lo <= 0.0) & (lo > t0)
        if not np.any(need):
            break
        lo = np.where(need, np.maximum(ts - 2.0 * (ts - lo), t0), lo)
        g_lo = _gap(ts, x_t, lo, traj.position(lo))
    if np.any((g_lo <= 0.0) & (np.abs(g_lo) > LIGHTCONE_TOL)):
        raise HistoryTooShortError("no retarded bracket for some times")
    return lo


# Times halved together.  Halving 10^5 times at once keeps some twenty
# full-length temporaries alive at its peak; in blocks they stay in
# cache and out of the resident set.
_HALVING_BLOCK = 16384


def _halve(traj: Trajectory, lo, hi, ts, x_t, iters: int) -> np.ndarray:
    """Bisect the brackets [lo, hi] of the times ts up to iters times and
    return the midpoints of the final brackets; lo and hi are
    overwritten with the final ends."""
    t0 = traj.t0
    out_lo, out_hi = lo, hi
    act = np.arange(ts.size)
    t_a, x_a = ts, x_t
    i_lo, i_hi = traj.interval(lo), traj.interval(hi)
    # the cubic of interval i_lo, or of i_mid for a bracket still split
    cubic, knot = traj.position_cubics(i_lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        i_mid = i_lo
        split = i_lo != i_hi
        if split.any():
            i_mid = i_lo.copy()
            i_mid[split] = traj.interval(mid[split])
            cubic[:, split], knot[split] = traj.position_cubics(i_mid[split])
        # position()'s clip to t0 acts only where hi starts below t0
        x_mid = cubic_value(cubic, knot, np.maximum(mid, t0))
        pos = _gap(t_a, x_a, mid, x_mid) > 0.0
        moved = np.where(pos, mid != lo, mid != hi)
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        i_lo = np.where(pos, i_mid, i_lo)
        i_hi = np.where(pos, i_hi, i_mid)
        if not moved.all():
            still = ~moved
            out_lo[act[still]], out_hi[act[still]] = lo[still], hi[still]
            act, lo, hi, i_lo, i_hi, t_a, x_a, knot = (
                a[moved] for a in (act, lo, hi, i_lo, i_hi, t_a, x_a, knot))
            cubic = cubic[:, moved]
            if act.size == 0:
                break
    out_lo[act], out_hi[act] = lo, hi
    return 0.5 * (out_lo + out_hi)


def solve_retarded_time_many(traj: Trajectory, ts: np.ndarray,
                             iters: int = 90) -> np.ndarray:
    """Retarded times t_r for an array of observation times.

    g(s) = (t - s) - sqrt((x(t) - x(s))^2 + 1) is strictly decreasing in
    s for subluminal histories, so each root is unique.  The bracket
    reaches back from one light crossing, doubling until g > 0; then
    each element halves its bracket up to iters times.  A step moves an
    element's bracket by that element's own state alone, so one that a
    step leaves unchanged sits at a fixed point of every later step and
    stops there: the result is bit for bit that of iters bisections, and
    the work follows the brackets still moving.  The same holds block by
    block, so the halvings run on _HALVING_BLOCK times at a time.  Once
    both ends of a bracket lie in one knot interval, every later
    midpoint does too, so the element keeps that interval's cubic and
    looks up nothing more.  The midpoints lie inside the checked
    bracket, so they skip the domain check.
    """
    ts = np.asarray(ts, dtype=float)
    shape = ts.shape
    ts = ts.ravel()
    if ts.size == 0:
        return np.empty(shape)
    x_t = np.asarray(traj.position(ts), dtype=float)
    hi = ts - 1.0
    if np.any(hi < traj.t0 - 1e-12):
        raise HistoryTooShortError("history too short for some times")
    lo = _reach_back(traj, ts, x_t)
    blocks = [slice(a, a + _HALVING_BLOCK)
              for a in range(0, ts.size, _HALVING_BLOCK)]
    s = np.concatenate([_halve(traj, lo[k], hi[k], ts[k], x_t[k], iters)
                        for k in blocks])
    if np.max(np.abs(_gap(ts, x_t, s, traj.position(s)))) > 1e-10:
        raise RuntimeError("light-cone solve did not converge")
    return s.reshape(shape)
