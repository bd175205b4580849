"""Stability, series, and simulation tools for an extended charge.

The model is a rigid dumbbell of two point charges held one diameter
apart: the retarded field each end throws at the other turns the
equation of motion into a state-dependent delay equation.  This
package carries that problem end to end in natural units (c = 1,
delay ~ 1):

* model      -- physical constants, unit maps, kinematic state
* series     -- exact rational power-series identities (the algebra
                behind every truncated expression used elsewhere)
* roots      -- characteristic roots of the linearized delay equation,
                enumerated by branch and certified by argument-principle
                counts, domain-coloring renders
* geometry   -- retarded-time solver and light-cone invariants
* trajectory -- dense trajectories, seed histories and the numpy cubic
                Hermite / PCHIP interpolant
* dynamics   -- exact and band-limited delay marches, growth rates,
                spectra, truncated low-order integrator
* potential  -- self-potential decomposition U = gamma + Q and the
                double-well profile it linearizes to
* report     -- one-shot reproduction report over the headline numbers
* cli        -- `zitterlab` command-line front end

The short version of the story the numbers tell: the rest state is
linearly unstable with a universal rate close to 1.79 c/d, the rate is
drift-independent in the comoving frame, the oscillatory branches form
an arithmetic ladder, and the unfiltered equation is ultraviolet ill
posed, which is why the long-horizon march is a filtered instrument
with its bandwidth stated rather than hidden.
"""

from .model import (
    KinematicState,
    ModelScales,
    PhysicalConstants,
    classical_radius,
    effective_radius,
    electron_size,
    lorentz_gamma,
    zitter_period,
)
from .roots import CharEq, Region, dominant_real_root, find_roots, spectrum
from .geometry import RetardedGeometry, solve_retarded_time
from .trajectory import SeedHistory, Trajectory
from .dynamics import (
    estimate_growth_rate,
    estimate_spectrum,
    integrate_truncated,
    perturbed_uniform_run,
    propagate_exact,
    propagate_filtered,
    residual_eom,
)
from .potential import quantum_potential, sample, self_potential_closed
from .series import verify_identities
from .report import run_report

__version__ = "0.1.0"

__all__ = [
    "CharEq",
    "KinematicState",
    "ModelScales",
    "PhysicalConstants",
    "Region",
    "RetardedGeometry",
    "SeedHistory",
    "Trajectory",
    "classical_radius",
    "dominant_real_root",
    "effective_radius",
    "electron_size",
    "estimate_growth_rate",
    "estimate_spectrum",
    "find_roots",
    "integrate_truncated",
    "lorentz_gamma",
    "perturbed_uniform_run",
    "propagate_exact",
    "propagate_filtered",
    "quantum_potential",
    "residual_eom",
    "run_report",
    "sample",
    "self_potential_closed",
    "solve_retarded_time",
    "spectrum",
    "verify_identities",
    "zitter_period",
]
