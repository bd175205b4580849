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
implicitly (solve_retarded_time_many, a bracketed fixed-count
bisection, or its single-time form solve_retarded_time), which is also
the audit oracle for the closed forms.

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
from .trajectory import Trajectory

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


def y_parameter(state: KinematicState) -> float:
    """The dimensionless acceleration combination gamma^6 beta_dot^2."""
    g = lorentz_gamma(state.beta)
    return g ** 6 * state.beta_dot ** 2


def retarded_r_closed(state: KinematicState, *, on_shell: bool = True) -> float:
    """Delay distance r (units d) from the emitter's state."""
    _require_on_shell(on_shell)
    g = lorentz_gamma(state.beta)
    y = g ** 6 * state.beta_dot ** 2
    return g * math.sqrt(1.0 + y) + g ** 4 * state.beta * state.beta_dot


def retarded_l_closed(state: KinematicState, *, on_shell: bool = True) -> float:
    """Signed longitudinal advance l (units d) from the emitter's state."""
    _require_on_shell(on_shell)
    g = lorentz_gamma(state.beta)
    y = g ** 6 * state.beta_dot ** 2
    return g * state.beta * math.sqrt(1.0 + y) + g ** 4 * state.beta_dot


def potential_denominator(state: KinematicState, *, on_shell: bool = True) -> float:
    """r - l*beta, the retarded potential's denominator (units d).

    Built from the two closed forms; algebraically equal to
    sqrt(1 + y)/gamma.
    """
    r = retarded_r_closed(state, on_shell=on_shell)
    l = retarded_l_closed(state, on_shell=on_shell)
    return r - l * state.beta


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


def solve_retarded_time_many(traj: Trajectory, ts: np.ndarray,
                             iters: int = 90) -> np.ndarray:
    """Retarded times t_r for an array of observation times.

    g(s) = (t - s) - sqrt((x(t) - x(s))^2 + 1) is strictly decreasing in
    s for subluminal histories, so each root is unique.  The bracket
    reaches back from one light crossing, doubling until g > 0; a fixed
    count of bisections follows, so the iteration count, not the data,
    decides the work and runs stay deterministic.
    """
    ts = np.asarray(ts, dtype=float)
    x_t = np.asarray(traj.position(ts), dtype=float)

    def g(s):
        dx = x_t - traj.position(s)
        return (ts - s) - np.sqrt(dx * dx + 1.0)

    hi = ts - 1.0
    if np.any(hi < traj.t0 - 1e-12):
        raise HistoryTooShortError("history too short for some times")
    lo = np.maximum(ts - 2.0, traj.t0)
    for _ in range(60):
        need = g(lo) <= 0.0
        at_edge = lo <= traj.t0
        if not np.any(need & ~at_edge):
            break
        lo = np.where(need & ~at_edge,
                      np.maximum(ts - 2.0 * (ts - lo), traj.t0), lo)
    bad = (g(lo) <= 0.0) & (np.abs(g(lo)) > LIGHTCONE_TOL)
    if np.any(bad):
        raise HistoryTooShortError("no retarded bracket for some times")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    s = 0.5 * (lo + hi)
    if np.max(np.abs(g(s))) > 1e-10:
        raise RuntimeError("light-cone solve did not converge")
    return s
