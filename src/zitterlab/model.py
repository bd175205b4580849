"""Physical constants, length scales, and kinematic state for the dumbbell charge.

The model is a pair of point charges -e/2 held at a fixed transverse
separation d while the pair moves along a single axis.  Everything
downstream works in nondimensional units c = d = 1: positions in units
of d, times in units of d/c, velocities as beta = v/c, accelerations as
beta_dot = a d/c^2.  This module owns the only dimensional quantities in
the package.

The separation that reproduces the electron mass as pure field energy is
d = hbar*alpha/(4 m_e c), giving an effective radius r_e = d/2.  The
trembling-motion period is T = 4*pi*r_e/c; it is reported for both the
classical electron radius 2.818e-15 m and for r_e = d/2, which differ by
a factor of ~8 (the literature quotes the former; this model's own
length scale gives the latter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

# CODATA 2018 defaults, SI units
C_LIGHT = 299792458.0            # m / s (exact)
HBAR = 1.054571817e-34           # J s
ALPHA = 7.2973525693e-3          # dimensionless
EPS0 = 8.8541878128e-12          # F / m
E_CHARGE = 1.602176634e-19       # C (exact)
M_ELECTRON = 9.1093837015e-31    # kg

# Sommerfeld relation hbar*alpha*c = e^2/(4 pi eps0) must hold to this
# relative tolerance for a constants set to be accepted.
SOMMERFELD_RTOL = 1e-3

CONFIG_KEYS = ("c", "hbar", "alpha", "eps0", "m_electron", "d_override")


class ConstantsError(ValueError):
    """Raised for inconsistent constants or malformed config files."""


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used to anchor the model scale.

    e_charge is not independently configurable: it is pinned by the
    Sommerfeld relation up to the consistency tolerance, and the default
    CODATA value is kept unless the caller constructs the dataclass
    directly.
    """

    c: float = C_LIGHT
    hbar: float = HBAR
    alpha: float = ALPHA
    eps0: float = EPS0
    e_charge: float = E_CHARGE
    m_electron: float = M_ELECTRON

    def __post_init__(self):
        for name in ("c", "hbar", "alpha", "eps0", "e_charge", "m_electron"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConstantsError(f"constant {name!r} must be finite and positive, got {v!r}")
        lhs = self.hbar * self.alpha * self.c
        rhs = self.e_charge ** 2 / (4.0 * math.pi * self.eps0)
        if abs(lhs - rhs) > SOMMERFELD_RTOL * abs(rhs):
            raise ConstantsError(
                "constants violate hbar*alpha*c = e^2/(4 pi eps0) "
                f"beyond {SOMMERFELD_RTOL:g} relative: {lhs:.6e} vs {rhs:.6e}"
            )


def electron_size(constants: PhysicalConstants = PhysicalConstants()) -> float:
    """Charge separation d (m) that makes the rest mass pure field energy.

    m_e c^2 = hbar*alpha*c/(4 d)  =>  d = hbar*alpha/(4 m_e c).
    """
    return constants.hbar * constants.alpha / (4.0 * constants.m_electron * constants.c)


def effective_radius(constants: PhysicalConstants = PhysicalConstants()) -> float:
    """Effective radius r_e = d/2 of the dumbbell (m)."""
    return 0.5 * electron_size(constants)


def classical_radius(constants: PhysicalConstants = PhysicalConstants()) -> float:
    """Classical electron radius alpha*hbar/(m_e c) (m).

    Exactly 8x the dumbbell's effective radius: the factor the two
    trembling-motion periods differ by.
    """
    return constants.alpha * constants.hbar / (constants.m_electron * constants.c)


def zitter_period(r_e: float, constants: PhysicalConstants = PhysicalConstants()) -> float:
    """Trembling-motion period T = 4*pi*r_e/c (s) for a given radius in m."""
    if not (r_e > 0):
        raise ValueError(f"radius must be positive, got {r_e!r}")
    return 4.0 * math.pi * r_e / constants.c


def lorentz_gamma(beta):
    """Lorentz factor 1/sqrt(1-beta^2) of a float or of each element of
    an array; every beta must be strictly subluminal."""
    if isinstance(beta, np.ndarray):
        if not (np.abs(beta) < 1.0).all():
            raise ValueError("|beta| must be < 1, got max |beta| = "
                             f"{float(np.max(np.abs(beta)))!r}")
        return 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    if not abs(beta) < 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta!r}")
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


@dataclass(frozen=True)
class KinematicState:
    """One-axis kinematic sample in c = d = 1 units.

    t: time (d/c), x: position (d), beta: velocity/c, beta_dot: a*d/c^2.
    """

    t: float = 0.0
    x: float = 0.0
    beta: float = 0.0
    beta_dot: float = 0.0

    def __post_init__(self):
        if not abs(self.beta) < 1.0:
            raise ValueError(f"superluminal state: |beta| = {abs(self.beta)!r} >= 1")

    @property
    def gamma(self) -> float:
        return lorentz_gamma(self.beta)


def parse_constants_file(path: str) -> tuple[PhysicalConstants, float | None]:
    """Read a flat `key = value` constants file.

    Returns (constants, d_override); no output reads d_override.  Keys
    outside CONFIG_KEYS are an error, as is any value Decimal refuses to
    parse.  Blank lines and `#` comments are skipped.
    """
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConstantsError(f"{path}:{lineno}: expected `key = value`, got {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in CONFIG_KEYS:
                raise ConstantsError(f"{path}:{lineno}: unknown key {key!r} (allowed: {', '.join(CONFIG_KEYS)})")
            if key in values:
                raise ConstantsError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = float(Decimal(text))
            except InvalidOperation as exc:
                raise ConstantsError(f"{path}:{lineno}: bad numeric value {text!r}") from exc
    d_override = values.pop("d_override", None)
    constants = PhysicalConstants(
        c=values.get("c", C_LIGHT),
        hbar=values.get("hbar", HBAR),
        alpha=values.get("alpha", ALPHA),
        eps0=values.get("eps0", EPS0),
        m_electron=values.get("m_electron", M_ELECTRON),
    )
    return constants, d_override
