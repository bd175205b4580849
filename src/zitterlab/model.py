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

numpy is never imported here.  lorentz_gamma and _fmt take their numpy
paths only once some other module has loaded numpy: until then no value
can be a numpy array or scalar, so `series-verify` runs without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

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

CONFIG_KEYS = ("c", "hbar", "alpha", "eps0", "m_electron")


class ConstantsError(ValueError):
    """Raised for inconsistent constants or malformed config files."""


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used to anchor the model scale.

    The elementary charge is not among them: it is the exact SI value
    E_CHARGE, against which the Sommerfeld relation checks the rest.
    """

    c: float = C_LIGHT
    hbar: float = HBAR
    alpha: float = ALPHA
    eps0: float = EPS0
    m_electron: float = M_ELECTRON

    def __post_init__(self):
        for name in CONFIG_KEYS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConstantsError(f"constant {name!r} must be finite and positive, got {v!r}")
        lhs = self.hbar * self.alpha * self.c
        rhs = E_CHARGE ** 2 / (4.0 * math.pi * self.eps0)
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
    np = sys.modules.get("numpy")
    if np is not None and isinstance(beta, np.ndarray):
        if not (np.abs(beta) < 1.0).all():
            raise ValueError("|beta| must be < 1, got max |beta| = "
                             f"{float(np.max(np.abs(beta)))!r}")
        return 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    if not abs(beta) < 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta!r}")
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def _fmt(value) -> str:
    """One JSON token: floats at 17 significant digits, lists as
    [a, b], rest literal."""
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    np = sys.modules.get("numpy")
    if isinstance(value, int) or (np is not None
                                  and isinstance(value, np.integer)):
        return str(int(value))
    if isinstance(value, float) or (np is not None
                                    and isinstance(value, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    import json
    return json.dumps(str(value), ensure_ascii=False)


def _json_line(fields: dict) -> str:
    """One JSON object on one line, keys in order, values by _fmt."""
    return "{" + ", ".join(f"{_fmt(k)}: {_fmt(v)}"
                           for k, v in fields.items()) + "}"


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


def parse_constants_file(path: str) -> PhysicalConstants:
    """Read a flat `key = value` constants file.

    Keys outside CONFIG_KEYS are an error, as is any value Decimal
    refuses to parse or float refuses to take, and any text that is not
    UTF-8.  Blank lines and `#` comments are skipped.
    """
    values: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConstantsError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, start=1):
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
        except (InvalidOperation, ValueError) as exc:
            raise ConstantsError(f"{path}:{lineno}: bad numeric value {text!r}") from exc
    return PhysicalConstants(**values)
