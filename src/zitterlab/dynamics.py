"""Motion integrators and signal diagnostics.

Two instruments march the full delay equation of motion with the
emitter map: every known state (s, x, beta, beta_dot) fixes the
particle's position at the later arrival time

    t_a = s + r(s),
    x(t_a) = x(s) + r(s) beta(s) + gamma^2(s) beta_dot(s),

with r from the geometry closed form (valid here because the map
constructs a solution).  The map is causal and explicit; no implicit
advanced-time solve is needed, and the implicit light-cone route stays
available as an independent audit (residual_eom_many).

Both are one march, _march, in the method-of-steps view of
state-dependent delay equations (Bellen & Zennaro 2003, Numerical
Methods for Delay Differential Equations, ch. 3-4): each pass re-emits
settled grid rows, whose arrivals settle the stretch one delay ahead.
PCHIP carries the arrivals onto the uniform grid, a smoothing kernel
acts on each generation, and _fd5 recovers (beta, beta_dot) at the
next emitters.  The instruments differ in the kernel alone:
propagate_exact uses one tap of weight 1 (no smoothing) and
propagate_filtered the cosine-tapered Gaussian of _filter_kernel.

integrate_truncated runs the jerk ODE obtained by keeping only the
leading terms of the small-separation expansion,

    a' = 3a(1 - (5/8) a^2) - 3 a^2 v     (lengths in d, times in d/c),

whose prefactors come from 12 m c^2 / (hbar alpha) = 3 c/d and
5 hbar alpha d / (32 m c^3) = 5 d^2 / (8 c^2) once the electromagnetic
mass m = hbar alpha / (4 d c) is substituted.  Its linear growth rate
is exactly 3, far from the full equation's 1.79..., which is the whole
point of keeping it.

Numerical notes on the march:

* Marching happens in drift-comoving position u = x - beta0 t.  For
  near-uniform motion the absolute position grows while the physics
  lives in a 1e-6 neighborhood; the comoving frame keeps roundoff at
  the scale of the perturbation instead of the scale of x.
* t_end must be a whole number of grid steps (to 1e-9 relative) for
  both instruments, because _fd5 differentiates the forward rows as
  one grid step apart.
* The exact march cannot run long.  The characteristic spectrum of the
  rest and drift states is unbounded above (Re z grows like twice the
  log of the mode frequency), so every delay crossing amplifies
  frequency-omega content by roughly omega^2 + 2: the equation itself
  is ill posed for rough data.  Any finite-precision history therefore
  seeds ultraviolet bands that overtake the signal after a few
  crossings no matter how the derivatives are recovered; smoothing
  only slows the death.  On a 1e-6 mode kick, beta - drift departs
  from the mode by up to 7.1x (beta = 0.3), 51x (0.6) and 2.2e3x
  (0.9) within a few grid steps of the first delay crossing, t = gamma.
  propagate_exact is the honest instrument for the seed pass and
  windows a delay or two long, and the drift rate
  (perturbed_uniform_run) reads only its seed pass: a march that ends
  before the first delay crossing re-emits nothing.
* propagate_filtered is the long-horizon instrument: it smooths each
  generation with a cosine-tapered Gaussian kernel.  The passband keeps
  the real mode and the fundamental oscillatory branch (both stay
  supercritical, so the instability is preserved); everything from
  the second branch up is damped below its per-crossing growth, which
  keeps the ultraviolet tower from overtaking the signal.  That has
  not bought a bounded saturated run: from a rest kick the real mode
  passes the unit-sum kernel and the march coasts into the light
  barrier (acceptance criterion 9, README "The honest failure").  The
  kernel fits inside the light cone: the emitter geometry forces
  r >= 1, so a sub-unit kernel span never starves the march.  The
  filter is not rate-neutral: a positive unit-sum kernel multiplies a
  real growing mode by a small known factor per generation, so
  log-slopes come out steeper (the filtered rest kick's
  estimate_growth_rate over (3, 5) reads 2.5494 against the 1.7933
  root); rate measurements belong on the exact path.
* Both return the seed history on the output grid, so the delay audit
  has the past it needs, and all choices land in the metadata.
* Arrival times must come out strictly increasing; if they do not, the
  run aborts with ArrivalOrderError rather than reordering anything.
  For a subluminal worldline the arrival map is provably monotone, so
  this abort can only ever flag numerical breakdown, not physics.
  Each pass re-emits every ready row.  Arrivals past the end of the
  output grid are kept only as far as its last rows' stencils reach,
  so rows the run never needs cannot abort it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _lightcone
from .model import KinematicState, lorentz_gamma
from .trajectory import (SeedHistory, SuperluminalError, Trajectory,
                         cubic_slope, cubic_value, pchip)

# reach in rows of the five-point stencil of _fd5
_HALF = 2
# output grid rows a march may hold: 128 MiB per float column
_MAX_ROWS = 2 ** 24


class ArrivalOrderError(RuntimeError):
    """Emitter-map arrival times failed to be strictly increasing."""


class DegenerateSignalError(ValueError):
    """The signal carries no usable envelope (zero or constant)."""


class TooFewSamplesError(ValueError):
    """Not enough uniform samples in the window for a spectrum."""


def _emit(t, u, b, a, drift):
    """Arrival time and comoving position from emitter states; t_a is
    inf or nan where an acceleration overflows them."""
    g2 = 1.0 / ((1.0 - b) * (1.0 + b))
    with np.errstate(over="ignore", invalid="ignore"):
        y = g2 ** 3 * a * a
        r = np.sqrt(g2) * np.sqrt(1.0 + y) + g2 * g2 * b * a
        t_a = t + r
        u_a = u + r * (b - drift) + g2 * a
    return t_a, u_a


def _emitters(t, u_s, i, grid, drift):
    """The emitter states (t, u, beta, beta_dot) of grid rows i, from the
    smoothed channel u_s, refusing |beta| >= 1."""
    du, d2u = _fd5(u_s, i, grid)
    beta = drift + du
    if np.any(np.abs(beta) >= 1.0):
        raise SuperluminalError("recovered |beta| >= 1 during marching")
    return t[i], u_s[i], beta, d2u


def _grid_rows(seed: SeedHistory, t_end: float,
               grid: float) -> tuple[int, int]:
    """The output row of t = 0 and the number of forward steps, once
    t_end and grid are checked; a grid past _MAX_ROWS is refused before
    anything is allocated."""
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    if not (grid > 0 and math.isfinite(grid)):
        raise ValueError(f"grid must be positive, got {grid!r}")
    if t_end < 0.5 * grid:
        raise ValueError(f"t_end {t_end!r} is shorter than half the grid "
                         f"step {grid!r}")
    k0 = int(round(seed.span / grid))
    n_fwd = int(round(t_end / grid))
    n_out = k0 + n_fwd + 1
    if n_out > _MAX_ROWS:
        raise ValueError(f"the output grid needs {n_out:,.9g} rows, past the "
                         f"cap of {_MAX_ROWS:,}: {k0 + 1:,.9g} for the seed "
                         f"span {seed.span:.6g} and {n_fwd:,.9g} for t_end "
                         f"{t_end:.6g}, each over the grid step {grid:.6g}")
    # the forward rows are t_end / n_fwd apart, and _fd5 differentiates
    # them as grid apart
    if abs(n_fwd * grid - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end {t_end!r} is not a whole number of "
                         f"grid steps {grid!r}")
    return k0, n_fwd


def _march(seed: SeedHistory, t_end: float, grid: float, kernel: np.ndarray,
           partial: bool, metadata: dict) -> Trajectory:
    """The emitter-map march both instruments share.

    The seed history, sampled onto the output grid, is emitted and
    written as the output rows up to t = 0.  Each pass then carries the
    arrivals onto the grid by PCHIP (the raw channel), smooths every row
    the kernel's reach covers (an odd, unit-sum kernel; one tap leaves
    the rows as they are), and re-emits every smoothed row whose _fd5
    stencil is complete, until the output rows' stencils are covered.
    Under partial=True a march cut short by the light barrier or an
    arrival fold returns the rows it settled.
    """
    k0, n_fwd = _grid_rows(seed, t_end, grid)
    n_out = k0 + n_fwd + 1
    half_k = kernel.size // 2
    drift = seed.beta

    # --- seed pass: emit from the prescribed history ------------------
    s_t = np.linspace(-seed.span, 0.0, k0 + 1)
    s_u, s_v, s_a = seed.offsets(s_t)
    s_b = drift + s_v
    if np.any(np.abs(s_b) >= 1.0):
        raise SuperluminalError("seed history reaches |beta| >= 1")
    t_a, u_a = _emit(s_t, s_u, s_b, s_a, drift)
    if not (np.all(np.diff(t_a) > 0.0) and np.isfinite(t_a[-1])):
        raise ArrivalOrderError("seed emissions gave non-monotone arrivals")
    if k0 < half_k + 8:
        raise ValueError("seed history too short to prime the march: "
                         f"{k0} seed rows, fewer than the kernel's "
                         f"half-width {half_k} plus 8")
    # the output grid, run on by the rows its last stencils reach
    t_grid = np.concatenate([s_t[:-1], np.linspace(0.0, t_end, n_fwd + 1),
                             t_end + grid * np.arange(1, half_k + 5)])
    u_raw = np.full(t_grid.size, np.nan)     # arrivals carried onto the grid
    u_s = np.full(t_grid.size, np.nan)       # the kernel's output
    u_raw[:k0 + 1] = s_u
    # The smoothed channel covers the seed rows too (filled by the first
    # pass), so no stencil ever straddles a raw/smoothed amplitude seam;
    # only the kernel-sized left edge stays raw, and emissions from there
    # land before t = 0 and are discarded.
    u_s[:half_k] = s_u[:half_k]
    cov, smo = k0, half_k - 1      # last raw row, last smoothed row
    nxt = k0 + 1                   # next emitter row
    # a few trailing arrivals are carried into the next interpolation so
    # pass boundaries do not degrade the pchip edge
    tail_t = tail_u = np.empty(0)
    last_arrival = t_a[-1]

    aborted: Exception | None = None
    try:
        while True:
            at = np.concatenate([tail_t, t_a])
            au = np.concatenate([tail_u, u_a])
            # the raw channel takes every row two steps short of the last
            # arrival
            hi = k0 - 1 + int(np.searchsorted(t_grid[k0:], at[-1] - 2.0 * grid,
                                              side="right"))
            hi = min(hi, t_grid.size - 1)
            if hi > cov:
                u_raw[cov + 1:hi + 1] = pchip(at, au)(t_grid[cov + 1:hi + 1])
                cov = hi
            tail_t, tail_u = at[-6:], au[-6:]
            # smooth every row whose kernel the raw channel now covers
            if cov - half_k > smo:
                u_s[smo + 1:cov - half_k + 1] = np.convolve(
                    u_raw[smo + 1 - half_k:cov + 1], kernel, mode="valid")
                smo = cov - half_k
            if smo >= n_out + 1:      # the last output row's stencil
                break
            t, u, b, a = _emitters(t_grid, u_s, np.arange(nxt, smo - 1),
                                   grid, drift)
            if t.size == 0:
                raise RuntimeError("marching starved: no recovered emitters "
                                   "ahead of the pointer")
            nxt += t.size
            t_a, u_a = _emit(t, u, b, a, drift)
            # Past the end of the output grid, arrivals serve only the
            # stencils of its last rows: keep the first one there and
            # the 2 * _HALF after it.  Later ones come from rows t_end
            # never needs, whose ultraviolet-fouled states can fold the
            # arrival order, and a pass re-emits every ready row, so it
            # reaches them: untrimmed, the pinned march
            # "filtered-uniform-kick-trim" folds at t = 2.639 of its 3.
            past = np.flatnonzero(t_a >= t_grid[-1])
            if past.size:
                keep = past[0] + 2 * _HALF + 1
                t_a, u_a = t_a[:keep], u_a[:keep]
            if not (t_a[0] > last_arrival and np.all(np.diff(t_a) > 0.0)
                    and np.isfinite(t_a[-1])):
                raise ArrivalOrderError("non-monotone arrival times; the run "
                                        "is reported, not reordered")
            last_arrival = t_a[-1]
    except (SuperluminalError, ArrivalOrderError) as exc:
        if not partial:
            raise
        aborted = exc

    last = n_out - 1
    if aborted is not None:
        last = min(smo - 3, last)   # output stencils need u_s[last + 2]
        if last <= k0 + 4:
            raise aborted
    t_out = t_grid[:last + 1]
    # one block holds the output rows (x in place of u once it is known)
    rows = np.empty((3, last + 1))
    rows[:, :k0 + 1] = s_u, s_b, s_a
    du, d2u = _fd5(u_s, np.arange(k0 + 1, last + 1), grid)
    rows[:, k0 + 1:] = u_s[k0 + 1:last + 1], drift + du, d2u
    # The marching check sees beta where it is recovered only; a run
    # whose coverage outpaces its emissions can finish with a
    # superluminal tail it never emitted from.  Trim on the assembled
    # output, nan included, whatever ended the march.
    bad = np.flatnonzero(~(np.abs(rows[1]) < 1.0))
    if bad.size:
        aborted = aborted or SuperluminalError("recovered |beta| >= 1 in "
                                               "the assembled output")
        cut = int(bad[0])
        if not partial or cut <= k0 + 4:
            raise aborted
        t_out, rows = t_out[:cut], rows[:, :cut]

    metadata = {**metadata, "drift": drift, "seed": seed.describe(),
                "t_start": 0.0}
    if aborted is not None:
        metadata["aborted"] = type(aborted).__name__
        metadata["abort_reason"] = str(aborted)
        metadata["t_reached"] = float(t_out[-1])
    rows[0] += drift * t_out
    return Trajectory(t_out, *rows, metadata=metadata)


def _filter_kernel(grid: float, sigma: float, span: float) -> np.ndarray:
    """Cosine-tapered Gaussian smoothing kernel on the uniform grid.

    The taper takes the kernel to zero with zero slope at +-span, so
    the transfer function rolls off one power faster than omega^-2 and
    the per-crossing gain (omega^2 + 2) |T(omega)| decays above the
    passband instead of plateauing.  Normalized to unit sum, so
    constants (uniform motion) pass through exactly up to roundoff.
    """
    k = int(round(span / grid))
    if k < 8:
        raise ValueError("kernel span must cover at least 8 grid steps")
    s = np.arange(-k, k + 1) * grid
    w = np.exp(-0.5 * (s / sigma) ** 2) * np.cos(0.5 * np.pi * s / span) ** 2
    return w / w.sum()


def _fd5(u: np.ndarray, i: np.ndarray,
         grid: float) -> tuple[np.ndarray, np.ndarray]:
    """Five-point centered first and second differences of u at i."""
    du = (u[i - 2] - 8.0 * u[i - 1]
          + 8.0 * u[i + 1] - u[i + 2]) / (12.0 * grid)
    d2u = (-u[i - 2] + 16.0 * u[i - 1] - 30.0 * u[i]
           + 16.0 * u[i + 1] - u[i + 2]) / (12.0 * grid * grid)
    return du, d2u


def propagate_exact(seed: SeedHistory, t_end: float,
                    grid: float = 1e-3) -> Trajectory:
    """March the delay equation of motion forward to t_end, unsmoothed.

    The march of propagate_filtered with a one-tap kernel: each
    generation is re-emitted as PCHIP carries its arrivals onto the
    grid.  Returns a Trajectory on a uniform grid covering
    [-span, t_end] (seed history included, so residual audits can reach
    into the past).  grid is the output spacing and the seed sampling
    step; t_end must be a whole number of grid steps (to 1e-9
    relative).
    """
    return _march(seed, t_end, grid, np.ones(1), False,
                  {"integrator": "emitter-map", "grid": grid})


def propagate_filtered(seed: SeedHistory, t_end: float, grid: float = 1e-3, *,
                       sigma: float = 0.45, kernel_span: float = 0.90,
                       partial: bool = False) -> Trajectory:
    """March the delay equation with per-generation band limiting.

    Same march as propagate_exact, with each generation smoothed by
    _filter_kernel before it is re-emitted (see the module notes).
    Defaults keep the real mode and the fundamental supercritical and
    damp the second branch and everything above it.  No bounded run
    has been reached from a rest kick: the real mode passes the filter
    and the march stops at the light barrier near t = 9.7 (acceptance
    criterion 9, README "The honest failure").

    kernel_span must stay below the minimum delay (1 in these units),
    or the march would need future data it cannot have yet.  t_end must
    be a whole number of grid steps (to 1e-9 relative), because the
    differences are taken on the grid step.

    partial=True returns the healthy prefix of a run that aborts
    mid-march (light-barrier approach or an arrival fold) instead of
    raising; the abort reason and reached time go into metadata.
    """
    # the row cap first: a grid under it keeps the kernel, at most
    # 1.9 / grid taps, shorter than the seed rows
    _grid_rows(seed, t_end, grid)
    if not 0.0 < kernel_span < 0.95:
        raise ValueError("kernel_span must sit inside the minimum delay, "
                         f"got {kernel_span!r}")
    if not 0.0 < sigma:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    return _march(seed, t_end, grid, _filter_kernel(grid, sigma, kernel_span),
                  partial, {"integrator": "emitter-map-filtered",
                            "grid": grid, "sigma": sigma,
                            "kernel_span": kernel_span})


def residual_eom_many(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Defect of the delay equation of motion at each time in ts.

    (1 - beta^2(t_r)) (x(t) - x(t_r) - r beta(t_r)) - beta_dot(t_r),
    with t_r from the implicit light-cone solve: an audit route fully
    independent of the closed forms the integrator used.  The solve
    hands over x(t), x(t_r) and t_r's knot interval with t_r, so nothing
    is looked up twice.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return np.empty(ts.shape)
    t_r, x_t, x_r, i_r = _lightcone(traj, ts.ravel())
    cubic, knot = traj.velocity_cubics(i_r)
    b = cubic_value(cubic, knot, t_r)
    a = cubic_slope(cubic, knot, t_r)
    r = ts.ravel() - t_r
    return ((1.0 - b * b) * (x_t - x_r - r * b) - a).reshape(ts.shape)


# ---------------------------------------------------------------------
# Truncated jerk ODE
# ---------------------------------------------------------------------

def _truncated_jerk(v: float, a: float) -> float:
    return 3.0 * a * (1.0 - 0.625 * a * a) - 3.0 * a * a * v


def integrate_truncated(state0: KinematicState, t_end: float,
                        step: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 on the truncated third-order system.

    The state (x, beta, beta_dot) steps as three Python floats; stage k
    has the slopes (v_k, a_k, j_k).  The truncation does not respect
    the light barrier; reaching |beta| >= 1 aborts with
    SuperluminalError (shrinking the step will not help — the model
    itself diverges).
    """
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if not (0 < step <= t_end):
        raise ValueError(f"bad step {step!r}")
    n = int(round(t_end / step))
    ts = np.linspace(0.0, n * step, n + 1)
    x, v, a = float(state0.x), float(state0.beta), float(state0.beta_dot)
    out = [(x, v, a)]
    h = step
    half, sixth = 0.5 * h, h / 6.0
    isfinite = math.isfinite
    for i in range(n):
        j1 = _truncated_jerk(v, a)
        v2, a2 = v + half * a, a + half * j1
        j2 = _truncated_jerk(v2, a2)
        v3, a3 = v + half * a2, a + half * j2
        j3 = _truncated_jerk(v3, a3)
        v4, a4 = v + h * a3, a + h * j3
        j4 = _truncated_jerk(v4, a4)
        x = x + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (a + 2.0 * a2 + 2.0 * a3 + a4)
        a = a + sixth * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        if not (isfinite(x) and isfinite(v) and isfinite(a)) or abs(v) >= 1.0:
            raise SuperluminalError(
                f"truncated model reached |beta| >= 1 near t = {ts[i + 1]:.6g}; "
                "the truncation does not protect the light barrier")
        out.append((x, v, a))
    out = np.array(out)
    return Trajectory(ts, out[:, 0], out[:, 1], out[:, 2], metadata={
        "integrator": "rk4-truncated", "grid": step,
        "seed": f"state(x={state0.x:.6g},beta={state0.beta:.6g},"
                f"beta_dot={state0.beta_dot:.6g})",
    })


# ---------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------

def sign_changes(s: np.ndarray) -> int:
    """How often the signal s changes sign, zeros skipped."""
    return int(np.count_nonzero(np.diff(np.sign(s[s != 0.0])) != 0))


@dataclass(frozen=True)
class GrowthRate:
    rate: float
    stderr: float
    n_points: int
    mode: str          # "direct" or "envelope"


def estimate_growth_rate(traj: Trajectory, window: tuple[float, float], *,
                         reference: float = 0.0) -> GrowthRate:
    """Least-squares slope of log |signal| over the window.

    signal = beta - reference.  Oscillatory signals (several sign
    changes inside the window) are reduced to their successive |.|
    maxima first; monotone-envelope signals are fitted directly.
    """
    w0, w1 = window
    sel = (traj.t >= w0) & (traj.t <= w1)
    ts = traj.t[sel]
    s = traj.beta[sel] - reference
    if ts.size < 4:
        raise DegenerateSignalError("fewer than 4 samples in the window")
    mag = np.abs(s)
    top = float(np.max(mag))
    if top == 0.0 or (top - float(np.min(mag))) <= 1e-13 * top:
        raise DegenerateSignalError("constant or zero signal in the window")

    mode = "direct"
    if sign_changes(s) >= 4:
        inner = (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]) & \
            (mag[1:-1] > 0.0)
        idx = np.flatnonzero(inner) + 1
        if idx.size >= 3:
            ts, mag, mode = ts[idx], mag[idx], "envelope"

    good = mag > 0.0
    ts, mag = ts[good], mag[good]
    if ts.size < 3:
        raise DegenerateSignalError("not enough nonzero samples")
    logs = np.log(mag)
    a = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    resid = logs - a @ coef
    dof = max(ts.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    tbar = ts.mean()
    denom = float(np.sum((ts - tbar) ** 2))
    stderr = math.sqrt(sigma2 / denom) if denom > 0 else float("inf")
    return GrowthRate(rate=float(coef[0]), stderr=stderr,
                      n_points=ts.size, mode=mode)


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float   # cycles per unit time
    power: float


def estimate_spectrum(traj: Trajectory,
                      window: tuple[float, float]) -> list[SpectralPeak]:
    """The four dominant frequencies of beta over the window, strongest
    first.

    Hann-windowed, mean-removed FFT of the uniform knot samples; the
    power spectrum's local maxima are found in one array pass, and the
    four strongest refined by quadratic interpolation in log power.
    Needs at least 256 uniform samples.
    """
    w0, w1 = window
    sel = (traj.t >= w0) & (traj.t <= w1)
    ts = traj.t[sel]
    if ts.size < 256:
        raise TooFewSamplesError(f"{ts.size} samples in window, need >= 256")
    steps = np.diff(ts)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-9 * dt:
        raise ValueError("spectrum needs uniform sampling in the window")
    s = traj.beta[sel]
    s = s - s.mean()
    win = np.hanning(ts.size)
    power = np.abs(np.fft.rfft(s * win)) ** 2
    freqs = np.fft.rfftfreq(ts.size, dt)
    floor = 1e-12 * float(np.max(power))
    mid = power[1:-1]
    k = np.flatnonzero((mid > power[:-2]) & (mid >= power[2:])
                       & (mid > floor)) + 1
    # the strongest four, ties in frequency order
    k = k[np.argsort(-power[k], kind="stable")[:4]]
    lm, l0, lp = np.log(power[[k - 1, k, k + 1]])
    denom = lm - 2.0 * l0 + lp
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(denom < 0, 0.5 * (lm - lp) / denom, 0.0)
    return [SpectralPeak(frequency=float(f), power=float(p))
            for f, p in zip((k + shift) * freqs[1], power[k])]


def perturbed_uniform_run(beta: float, kick: float = 1e-6) -> GrowthRate:
    """Growth rate of a mode-kicked drift state (lab-frame units c/d).

    The run is the march's seed pass alone.  The seed solves the
    linearized equation, so the full map's continuation differs by a
    smooth O(kick^2) term switching on at t = 0, and each delay crossing
    (gamma in lab time) differentiates that kink twice more: a row past
    t = gamma that is re-emitted carries it into the velocity channel
    and, from beta ~ 0.9 or a finer grid on, folds or raises the march.
    The fit window [0.4, 0.95] gamma sits before the first crossing, and
    the march ends on the first grid row at or past its end, so every
    row it reads is an arrival of the analytic seed and nothing is
    re-emitted.  A negative drift is the mirror image x -> -x of a
    positive one, with the same rate.
    """
    if not abs(beta) < 1.0:
        raise ValueError(f"beta must be in (-1, 1), got {beta!r}")
    gamma = lorentz_gamma(beta)
    grid = 1e-3
    # the first grid row at or past 0.95 gamma: one step past the window
    # is still short of the first crossing at gamma
    t_end = grid * math.ceil(0.95 * gamma / grid)
    traj = propagate_exact(SeedHistory.mode_kick(beta, kick), t_end, grid)
    return estimate_growth_rate(traj, (0.4 * gamma, 0.95 * gamma),
                                reference=beta)
