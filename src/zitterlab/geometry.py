"""Retarded-time geometry of the dumbbell.

Working units: lengths in d, times in d/c.  A signal emitted at s
reaches the partner charge at t with t - s = r(s) and r^2 = l^2 + 1,
where l = x(t) - x(s) is the longitudinal advance and the 1 is the
fixed transverse separation.

For trajectories that actually solve the motion equation the delay
closes in the emitter's instantaneous state: the closed forms r and l
are written once, in model.delay_closed, and the KinematicState
functions here call it.  They satisfy r^2 = l^2 + 1 identically and
reduce to r = gamma at beta_dot = 0.  They hold on-shell only;
off-shell callers must solve the light-cone condition implicitly
(solve_retarded_time_many, or its single-time form
solve_retarded_time), which is also the audit oracle for the closed
forms.  That solve is a 90-halving bisection and returns its last
midpoint.  Each time reaches back for its bracket, Newton steps pin its
root inside a window [a, b] a few hundred ulps wide, and a rounding
bound on the computed gap certifies the sign the bisection sees at
every midpoint outside it, so the gap is evaluated only at midpoints
inside the window.  A time the certificate does not cover evaluates
it at every midpoint.  The solve takes every time it is given in one
pass; the CLI's residual audit hands it one CSV row block at a time.

Sign convention: the radical in the l closed form is unsigned; the
signed version used here carries the sign of the longitudinal advance
(gamma beta sqrt(1+y) + gamma^4 beta_dot), which reproduces the
magnitude form and changes sign correctly through turning points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import KinematicState, delay_closed
from .trajectory import Trajectory, cubic_slope, cubic_value

LIGHTCONE_TOL = 1e-12


class HistoryTooShortError(ValueError):
    """The trajectory does not reach far enough into the past."""


def y_parameter(state: KinematicState) -> float:
    """The dimensionless acceleration combination gamma^6 beta_dot^2."""
    return delay_closed(state.beta, state.beta_dot)[1]


def retarded_r_closed(state: KinematicState) -> float:
    """Delay distance r (units d) from the emitter's state."""
    return delay_closed(state.beta, state.beta_dot)[3]


def retarded_l_closed(state: KinematicState) -> float:
    """Signed longitudinal advance l (units d) from the emitter's state."""
    return delay_closed(state.beta, state.beta_dot)[4]


def potential_denominator(state: KinematicState) -> float:
    """r - l*beta, the retarded potential's denominator (units d).

    Built from the two closed forms; algebraically equal to
    sqrt(1 + y)/gamma.
    """
    return delay_closed(state.beta, state.beta_dot)[5]


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

    A one-element light-cone solve, with the delay r and the
    longitudinal advance l read off the solved t_r.
    """
    t_r, x_t, x_r, _ = _lightcone(traj, np.array([float(t)]))
    return RetardedGeometry(r=float(t - t_r[0]), l=float(x_t[0] - x_r[0]),
                            t_r=float(t_r[0]))


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


# Most halvings one element takes
_HALVINGS = 90

# Most Newton steps one time takes from t - gamma(beta(t)): a time
# steps on while its last step spanned more than its window.  Where
# |beta| nears 1 on the rest kick the start lies up to 1.9 d/c from the
# root and g' nears 0.
_NEWTON_MAX = 30

# tau = _TAU_EPS eps (1 + |x(t)| + (t - lo) + 16 h) exceeds four times
# the rounding error of a computed g (solve_retarded_time_many)
_TAU_EPS = 16.0


def _relocate(traj: Trajectory, i, s):
    """The knot intervals of the times s, given intervals i that most of
    them still lie in; only the others are looked up."""
    away = (s < traj.t[i]) | (s >= traj.t[i + 1])
    if away.any():
        i = i.copy()
        i[away] = traj.interval(s[away])
    return i


def _newton_step(traj: Trajectory, i, s, ts, x_t, lo, hi):
    """One Newton step on g of the times ts from s, kept in [lo, hi],
    given the knot intervals i of s: the new s, its knot intervals, and
    g' at the old s."""
    cubic, knot = traj.position_cubics(i)
    dx = x_t - cubic_value(cubic, knot, s)
    rho = np.sqrt(dx * dx + 1.0)
    slope = dx * cubic_slope(cubic, knot, s) / rho - 1.0
    s = np.fmin(np.fmax(s - ((ts - s) - rho) / slope, lo), hi)
    return s, _relocate(traj, i, s), slope


def _enclose(traj: Trajectory, lo, hi, ts, x_t, beta):
    """Certified windows (a, b) for the brackets [lo, hi] of the times
    ts, with x(t) and beta(t) given, and the knot intervals of a: every
    midpoint below a has computed g > 0 and every one above b computed
    g < 0.  Wherever the certificate fails the window is (-inf, inf),
    which decides no midpoint."""
    h = float(np.max(np.diff(traj.t)))
    tau = _TAU_EPS * np.finfo(float).eps * (
        np.abs(x_t) + (ts - lo) + (1.0 + 16.0 * h))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.fmin(np.fmax(
            ts - 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta)), lo), hi)
        i = traj.interval(s)
        last = s
        s, i, slope = _newton_step(traj, i, s, ts, x_t, lo, hi)
        # a time whose last step spanned more than its window steps on
        k = np.flatnonzero(np.abs(s - last) * np.abs(slope) > 2.0 * tau)
        for _ in range(_NEWTON_MAX - 1):
            if k.size == 0:
                break
            last = s[k]
            s[k], i[k], slope[k] = _newton_step(
                traj, i[k], last, ts[k], x_t[k], lo[k], hi[k])
            k = k[np.abs(s[k] - last) * np.abs(slope[k]) > 2.0 * tau[k]]
        m = 2.0 * tau / np.abs(slope)
        a, b = np.fmax(s - m, lo), np.fmin(s + m, hi)
    # an end clipped to lo or hi decides no midpoint of [lo, hi] under
    # _halve's strict comparisons, so it needs no test
    i_a, i_b = _relocate(traj, i, a), _relocate(traj, i, b)
    ok = (a < b) & ((a == lo) | (_gap(ts, x_t, a, cubic_value(
        *traj.position_cubics(i_a), a)) > tau))
    ok &= (b == hi) | (_gap(ts, x_t, b, cubic_value(
        *traj.position_cubics(i_b), b)) < -tau)
    return np.where(ok, a, -np.inf), np.where(ok, b, np.inf), i_a


def _halve(traj: Trajectory, lo, hi, a, b, i, ts, x_t) -> np.ndarray:
    """The last midpoints of the reference bisection of the brackets
    [lo, hi] of the times ts.  A midpoint outside the certified window
    (a, b) takes its sign from the window, and only one in [a, b]
    evaluates g; i holds the knot interval of each a, then of the
    element's last evaluated midpoint."""
    t0 = traj.t0
    out = np.empty_like(ts)
    act = np.arange(ts.size)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        pos = mid < a
        test = (mid <= b) & ~pos
        stop = None
        if test.any():
            k = slice(None) if test.all() else np.flatnonzero(test)
            m = mid[k]
            i[k] = _relocate(traj, i[k], m)
            # position()'s clip to t0 acts only where hi starts below t0
            x_m = cubic_value(*traj.position_cubics(i[k]), np.maximum(m, t0))
            pos[k] = p = _gap(ts[k], x_t[k], m, x_m) > 0.0
            stop = np.zeros(act.size, dtype=bool)
            stop[k] = np.where(p, m == lo[k], m == hi[k])
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if stop is not None and stop.any():
            out[act[stop]] = mid[stop]
            go = ~stop
            act, lo, hi, a, b, i, ts, x_t = (
                v[go] for v in (act, lo, hi, a, b, i, ts, x_t))
            if act.size == 0:
                return out
    out[act] = 0.5 * (lo + hi)
    return out


def _lightcone(traj: Trajectory, ts: np.ndarray):
    """The light-cone solve of the flat times ts: t_r, x(t), x(t_r) and
    the knot interval of t_r, the last two as position() and
    interval() give them."""
    tc, i_t = traj.locate(ts)
    x_t = cubic_value(*traj.position_cubics(i_t), tc)
    hi = ts - 1.0
    if np.any(hi < traj.t0 - 1e-12):
        raise HistoryTooShortError("history too short for some times")
    beta = cubic_value(*traj.velocity_cubics(i_t), tc)
    lo = _reach_back(traj, ts, x_t)
    a, b, i = _enclose(traj, lo, hi, ts, x_t, beta)
    s = _halve(traj, lo, hi, a, b, i, ts, x_t)
    i_r = traj.interval(s)
    x_r = cubic_value(*traj.position_cubics(i_r), s)
    if np.max(np.abs(_gap(ts, x_t, s, x_r))) > 1e-10:
        raise RuntimeError("light-cone solve did not converge")
    return s, x_t, x_r, i_r


def solve_retarded_time_many(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Retarded times t_r for an array of observation times.

    g(s) = (t - s) - sqrt((x(t) - x(s))^2 + 1) strictly decreases in s
    where the history's interpolant is subluminal (|x'| < 1), so each
    root is unique.  The result is bit for bit the reference bisection's:
    hi = t - 1, lo = max(t - 2, t0) reaching back twice as far until
    g(lo) > 0, then _HALVINGS halvings at mid = 0.5 (lo + hi) that keep
    lo = mid where the computed g(mid) > 0, and t_r the last midpoint.
    _reach_back finds that lo for every time.  Most of the signs the
    halvings need are known without evaluating g:

    Enclose.  Newton steps on g from t - gamma(beta(t)), kept in
    [lo, hi], give s: one on every time, then more on each time whose
    last step moved s by more than m, up to _NEWTON_MAX steps in all.
    a = s - m and b = s + m, m = 2 tau/|g'|, clipped to [lo, hi].

    Certify.  Let u = eps/2 and h the widest knot spacing.  For s in
    [lo, hi] the computed g(s), before its last subtraction (whose sign
    is exact), differs from the exact g of the interpolant, to first
    order in u, by at most

        delta = u (7 (t - lo) + 3 |x(t)| + 2 + 111 h):

    the Hermite coefficients put 63 u h on a cubic (knot slopes and
    secants below 1), s - knot u h, the power sum 3 u |x_i| + 44 u h
    with |x_i| <= |x(t)| + (t - s) + h, and x(t) - x(s), the square root
    and t - s another u (t - s), 2 u (t - s + 1) and u (t - s).  So
    delta <= 3.5 eps S with S = 1 + |x(t)| + (t - lo) + 16 h, and tau =
    _TAU_EPS eps S = 16 eps S exceeds delta more than four times over.
    Where the computed g(a) > tau and g(b) < -tau, g's monotonicity
    puts every midpoint below a at computed g > 0 and every one above b
    at computed g < 0.  An end clipped to lo or hi is not tested.

    Decide.  Each halving takes the reference's own midpoint mid.  A
    mid < a keeps lo = mid and a mid > b keeps hi = mid, as the
    certificate says the computed g would; only a mid in [a, b]
    evaluates g.  The comparisons are strict: a midpoint of [lo, hi]
    lies in [lo, hi], so an end clipped there decides nothing, and a
    mid equal to a tested end evaluates g.  An element the certificate
    does not cover gets the window (-inf, inf) and the plain bisection.
    The whole bracket would not do: where t - 1 lies below t0, by less
    than the 1e-12 the bracket check allows, lo = t0 > hi and midpoints
    fall below lo.

    Finish.  A halving moves an element's bracket by that element's own
    state alone, so one that a halving leaves unchanged sits at a fixed
    point of every later one and stops there.  A halving the window
    decides always moves: hi stays above a tested a (the computed
    g(a) > tau) and lo below a tested b, so the bracket then holds the
    tested end strictly inside and spans more than one float.  Only
    halvings that evaluate g are tested for a stop.  g reads the cubic
    of the element's last evaluated knot interval, looked up afresh only
    where mid has left it.  All of ts is solved in one pass; the CLI
    streams its residual audit in row blocks.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(ts.shape)
    return _lightcone(traj, ts.ravel())[0].reshape(ts.shape)
