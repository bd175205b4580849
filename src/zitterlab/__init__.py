"""Stability, series, and simulation tools for an extended charge.

The model is a rigid dumbbell of two point charges held one diameter
apart: the retarded field each end throws at the other turns the
equation of motion into a state-dependent delay equation.  This
package carries that problem end to end in natural units (c = 1,
delay ~ 1):

* model      -- physical constants, unit maps, kinematic state, the
                unstable rate lambda* and the emitter's closed forms
* series     -- exact rational power-series ring and identities (the
                algebra behind every truncated expression used elsewhere)
* roots      -- characteristic roots of the linearized delay equation,
                enumerated by branch and certified by argument-principle
                counts, domain-coloring renders
* geometry   -- retarded-time solver and light-cone invariants
* trajectory -- dense trajectories, seed histories and the numpy cubic
                Hermite / PCHIP interpolant
* dynamics   -- exact and band-limited delay marches, the light-cone
                residual audit, the seed-pass drift rate, spectra,
                truncated low-order integrator
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

import importlib

# Each public name and the module that defines it.  The package imports
# nothing up front: __getattr__ (PEP 562) loads a module the first time
# one of its names is asked for, so a caller pays only for the layers it
# uses, and numpy only when one of those needs it.
_LAYERS = {
    "model": ("KinematicState", "PhysicalConstants", "classical_radius",
              "dominant_real_root", "effective_radius", "electron_size",
              "lorentz_gamma", "zitter_period"),
    "roots": ("CharEq", "Region", "find_roots", "spectrum"),
    "geometry": ("RetardedGeometry", "solve_retarded_time"),
    "trajectory": ("SeedHistory", "Trajectory"),
    "dynamics": ("estimate_growth_rate", "estimate_spectrum",
                 "integrate_truncated", "perturbed_uniform_run",
                 "propagate_exact", "propagate_filtered", "residual_eom_many"),
    "potential": ("quantum_potential", "sample", "self_potential_closed"),
    "series": ("verify_identities",),
    "report": ("run_report",),
}
_SOURCE = {name: module for module, names in _LAYERS.items()
           for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
