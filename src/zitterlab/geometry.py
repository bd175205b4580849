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
beta_dot = 0.  They hold on-shell only; off-shell callers must solve
the light-cone condition implicitly (solve_retarded_time_many, or its
single-time form solve_retarded_time), which is also the audit oracle
for the closed forms.  That solve returns, bit for bit, the last
midpoint of a 90-halving bisection.  Newton steps pin each root
inside a window [a, b] a few hundred ulps wide, and a rounding bound
on the computed gap certifies the sign the bisection will see at every
midpoint outside it.  While the bracket's width is an even multiple of
its grid unit every midpoint is exact, so the bracket jumps straight
to the deepest cell the bisection reaches that still holds [a, b],
and those K halvings count against the 90.  The remaining halvings
run as the bisection's own, and a time the certificate does not cover
takes the whole bisection.

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
from .trajectory import Trajectory, cubic_slope, cubic_value

LIGHTCONE_TOL = 1e-12


class HistoryTooShortError(ValueError):
    """The trajectory does not reach far enough into the past."""


def delay_closed(beta, beta_dot):
    """Closed forms of the emitter state (beta, beta_dot).

    Returns (gamma, y, sqrt(1 + y), r, l, r - l beta), as floats for
    float input or elementwise for arrays that broadcast; an array beta
    must be subluminal in every element.  Floats are never turned into
    arrays here (see the module notes on numpy's power).
    """
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

# Times halved together.  Halving 10^5 times at once keeps some twenty
# full-length temporaries alive at its peak; in blocks they stay in
# cache and out of the resident set.
_HALVING_BLOCK = 16384

# Newton steps from t - gamma(beta(t)) before the enclosure is tested:
# on the mode-kick run the start is off by ~1e-6 and the two steps after
# it by ~1e-13 and ~4e-16; the third serves starts further off, as on
# an accelerating history
_NEWTON_STEPS = 3

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


def _enclose(traj: Trajectory, lo, hi, ts, x_t, beta):
    """Certified jumps for the brackets [lo, hi] of the times ts, with
    x(t) and beta(t) given: the brackets the reference bisection holds
    after K halvings, their ends' knot intervals, and K.  K is 0, and
    the bracket unchanged, wherever the certificate fails."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.fmin(np.fmax(
            ts - 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta)), lo), hi)
        i = traj.interval(s)
        for _ in range(_NEWTON_STEPS):
            cubic, knot = traj.position_cubics(i)
            dx = x_t - cubic_value(cubic, knot, s)
            rho = np.sqrt(dx * dx + 1.0)
            slope = dx * cubic_slope(cubic, knot, s) / rho - 1.0
            s = np.fmin(np.fmax(s - ((ts - s) - rho) / slope, lo), hi)
            i = _relocate(traj, i, s)
        h = float(np.max(np.diff(traj.t)))
        tau = _TAU_EPS * np.finfo(float).eps * (
            np.abs(x_t) + (ts - lo) + (1.0 + 16.0 * h))
        m = 2.0 * tau / np.abs(slope)
        a, b = np.fmax(s - m, lo), np.fmin(s + m, hi)
    # no midpoint reaches lo or hi, so an end clipped there needs no test
    i_a, i_b = _relocate(traj, i, a), _relocate(traj, i, b)
    ok = (a < b) & ((a == lo) | (_gap(ts, x_t, a, cubic_value(
        *traj.position_cubics(i_a), a)) > tau))
    ok &= (b == hi) | (_gap(ts, x_t, b, cubic_value(
        *traj.position_cubics(i_b), b)) < -tau)
    # the grid unit q: a power of two with q >= (2|a| + hi - lo) / 2^54
    # (the factor lifts the computed sum above the exact one)
    q = np.ldexp(1.0, np.frexp((2.0 * np.abs(a) + (hi - lo))
                               * (1.0 + 2.0 ** -50))[1] - 54)
    lo_q, hi_q = lo / q, hi / q
    ok &= (lo_q == np.floor(lo_q)) & (hi_q == np.floor(hi_q))
    low = np.where(ok, lo_q, 0.0).astype(np.int64)
    span = np.where(ok, hi_q, 1.0).astype(np.int64) - low
    d = np.frexp((span & -span).astype(float))[1] - 1
    odd = span >> d
    # a and b in grid units from lo, and their level-d cells as d-bit
    # numbers, a tie at b sent left
    a_q = np.floor(np.where(ok, a / q, 0.0)).astype(np.int64) - low
    b_q = np.ceil(np.where(ok, b / q, 1.0)).astype(np.int64) - low
    cell_a, cell_b = a_q // odd, (b_q - 1) // odd
    levels = np.where(ok, d - np.frexp((cell_a ^ cell_b).astype(float))[1], 0)
    width = odd << (d - levels)
    start = low + (cell_a >> (d - levels)) * width
    lo = np.where(ok, start.astype(float) * q, lo)
    hi = np.where(ok, (start + width).astype(float) * q, hi)
    return lo, hi, _relocate(traj, i_a, lo), _relocate(traj, i_b, hi), levels


def _halve(traj: Trajectory, lo, hi, i_lo, i_hi, ts, x_t,
           budget) -> np.ndarray:
    """Bisect the brackets [lo, hi] of the times ts, whose ends lie in
    the knot intervals i_lo and i_hi, each up to its budget of halvings,
    and return the midpoints of the final brackets; lo and hi are
    overwritten with the final ends."""
    t0 = traj.t0
    out_lo, out_hi = lo, hi
    act = np.arange(ts.size)
    t_a, x_a = ts, x_t
    # the cubic of interval i_lo, or of i_mid for a bracket still split;
    # once none is split, none will be
    cubic, knot = traj.position_cubics(i_lo)
    split_any = True
    first_stop = budget.min()
    for step in range(1, _HALVINGS + 1):
        mid = 0.5 * (lo + hi)
        if split_any:
            split = i_lo != i_hi
            split_any = split.any()
            i_mid = i_lo
            if split_any:
                i_mid = i_lo.copy()
                i_mid[split] = traj.interval(mid[split])
                cubic[:, split], knot[split] = traj.position_cubics(
                    i_mid[split])
        # position()'s clip to t0 acts only where hi starts below t0
        x_mid = cubic_value(cubic, knot, np.maximum(mid, t0))
        pos = _gap(t_a, x_a, mid, x_mid) > 0.0
        moved = np.where(pos, mid != lo, mid != hi)
        if step >= first_stop:
            moved &= budget > step
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
        if split_any:
            i_lo = np.where(pos, i_mid, i_lo)
            i_hi = np.where(pos, i_hi, i_mid)
        if not moved.all():
            still = ~moved
            out_lo[act[still]], out_hi[act[still]] = lo[still], hi[still]
            act, lo, hi, i_lo, i_hi, t_a, x_a, knot, budget = (
                a[moved] for a in (act, lo, hi, i_lo, i_hi, t_a, x_a, knot,
                                   budget))
            cubic = cubic[:, moved]
            if act.size == 0:
                break
    out_lo[act], out_hi[act] = lo, hi
    return 0.5 * (out_lo + out_hi)


def _solve_block(traj: Trajectory, lo, hi, ts, x_t, beta) -> np.ndarray:
    lo, hi, i_lo, i_hi, levels = _enclose(traj, lo, hi, ts, x_t, beta)
    return _halve(traj, lo, hi, i_lo, i_hi, ts, x_t, _HALVINGS - levels)


def _lightcone(traj: Trajectory, ts: np.ndarray):
    """The light-cone solve of the flat times ts: t_r, x(t), x(t_r) and
    the knot interval of t_r, the last two as position() and
    interval() give them."""
    tc, i_t = traj.locate(ts)
    x_t = cubic_value(*traj.position_cubics(i_t), tc)
    hi = ts - 1.0
    if np.any(hi < traj.t0 - 1e-12):
        raise HistoryTooShortError("history too short for some times")
    lo = _reach_back(traj, ts, x_t)
    blocks = [slice(a, a + _HALVING_BLOCK)
              for a in range(0, ts.size, _HALVING_BLOCK)]
    s = np.concatenate([
        _solve_block(traj, lo[k], hi[k], ts[k], x_t[k],
                     cubic_value(*traj.velocity_cubics(i_t[k]), tc[k]))
        for k in blocks])
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
    Most of those halvings are decided before any is taken:

    Enclose.  _NEWTON_STEPS Newton steps on g from t - gamma(beta(t)),
    kept in [lo, hi], give s; a = s - m and b = s + m, m = 2 tau/|g'|,
    clipped to [lo, hi].

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
    puts every reference midpoint <= a at computed g > 0 and every one
    >= b at computed g < 0.  No midpoint reaches lo or hi, so an end
    clipped there needs no test.

    Jump.  Take q a power of two with q >= (2|a| + hi - lo) / 2^54,
    lo and hi multiples of q, and hi - lo = n q with n = odd 2^d.  Each
    bracket [l, h] of the reference that holds [a, b] has |l + h| <=
    2|a| + (hi - lo) <= 2^54 q, so while its width is an even multiple
    of q the sum l + h and the midpoint are exact: after k <= d
    halvings the bracket is exactly lo + j n 2^-k q.  K is the deepest
    such level whose cell holds all of [a, b], the common leading bits
    of the level-d cell numbers of a and of b (a tie at b sent left).
    The element starts from that cell with _HALVINGS - K halvings left.
    Without the charge, an element that moves at every one of the 90
    comes out wrong.  The t_r ~ -1.2e-12 one of the exact rest mode-kick
    run is off by 2 ulp, and the t_r ~ -4.5e-14 one of the filtered rest
    kick by 64.  An element the certificate does not cover keeps K = 0
    and the whole bisection.

    Finish.  A halving moves an element's bracket by that element's own
    state alone, so one that a halving leaves unchanged sits at a fixed
    point of every later one and stops there; everything runs on
    _HALVING_BLOCK times at a time.  Once both ends of a bracket lie in
    one knot interval, every later midpoint does too, so the element
    keeps that interval's cubic and looks up nothing more.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(ts.shape)
    return _lightcone(traj, ts.ravel())[0].reshape(ts.shape)
