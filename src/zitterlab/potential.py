"""Self-potential, quantum potential, and the Duffing approximation.

Energies are in rest-energy units (m c^2 with m = hbar*alpha/(4dc), the
electromagnetic mass), lengths in d, so everything here is a pure
number.  The central closed form is

    U = gamma / sqrt(1 + y),        y = gamma^6 beta_dot^2,

obtained by routing the retarded potential through the denominator
identity (r - l beta) gamma = sqrt(1 + y) of the closed forms.  The
decomposition U = gamma + Q then defines the quantum potential

    Q = -gamma (1 - 1/sqrt(1 + y)) <= 0,

which vanishes for uniform motion.  The alternating series in y with
the q_n coefficients is the binomial expansion of 1/sqrt(1 + y); it is
kept as a cross-check, never as the primary route, because it only
converges for y < 1.

U, Q, gamma and y are written once, over (beta, beta_dot) on top of
model.delay_closed: decompose takes floats or arrays, and the
KinematicState functions call the same body.  As there, array results
match the float ones to a couple of ulp only, because numpy's power
ufunc is not libm's pow.

numpy is never imported here, so `potential` runs without it.  Arrays
take their numpy paths only once a caller has loaded numpy (the idiom
of model.delay_closed).  The same holds for duffing_potential and
duffing_force: a float stays a Python float, its powers are libm's pow
and a power past the float range is an inf of its sign; an array takes
numpy's power ufunc, which may differ from libm in the last bits and
warns on overflow as numpy does.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction

from . import _Record
from .model import KinematicState, PhysicalConstants, delay_closed


def q_coeff(n: int) -> Fraction:
    """Exact coefficient (2n - 1)!! / (2^n n!) of the y-series.

    Also the mean of cos^(2n) over a period, which is the quadrature
    cross-check used in the tests.
    """
    if n < 1:
        raise ValueError(f"q_coeff needs n >= 1, got {n}")
    double_fact = math.prod(range(1, 2 * n, 2))
    return Fraction(double_fact, 2 ** n * math.factorial(n))


class PotentialSample(_Record):
    """Energy decomposition at one kinematic state, or at each of an
    array of them (rest-energy units)."""

    __slots__ = ("U", "Q", "gamma", "y")

    def __init__(self, U: float, Q: float, gamma: float, y: float):
        self._init(U, Q, gamma, y)
        self.__post_init__()

    def __post_init__(self):
        U, Q, y = self.U, self.Q, self.y
        if not _everywhere(U > 0):
            raise ValueError(f"U must be positive, got {U!r}")
        if not _everywhere(Q <= 1e-12):
            raise ValueError(f"Q must be <= 0, got {Q!r}")
        if not _everywhere(y >= 0):
            raise ValueError(f"y must be >= 0, got {y!r}")


def _everywhere(holds) -> bool:
    """Whether a comparison holds: its bool, or every element of the
    array a comparison of arrays gives."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(holds, np.ndarray):
        return bool(holds.all())
    return bool(holds)


def _energies(beta, beta_dot):
    """U, Q, gamma and y of (beta, beta_dot), floats or arrays, unchecked."""
    g, y, root, _, _, denominator = delay_closed(beta, beta_dot)
    return 1.0 / denominator, -g * (1.0 - 1.0 / root), g, y


def decompose(beta, beta_dot) -> PotentialSample:
    """U = gamma + Q at the state (beta, beta_dot), or elementwise over
    arrays of them."""
    return PotentialSample(*_energies(beta, beta_dot))


def self_potential_closed(state: KinematicState) -> float:
    """U in rest-energy units: d over the retarded denominator r - l*beta."""
    return _energies(state.beta, state.beta_dot)[0]


def quantum_potential(state: KinematicState) -> float:
    """Q = -gamma (1 - 1/sqrt(1 + y)); zero for uniform motion."""
    return _energies(state.beta, state.beta_dot)[1]


def sample(state: KinematicState) -> PotentialSample:
    return decompose(state.beta, state.beta_dot)


def self_potential_partial_sums(state: KinematicState,
                                n_terms: int) -> list[float]:
    """Cumulative partial sums gamma(1 + sum q_n (-y)^n), n = 1..N.

    Emits a divergence warning for y >= 1, where the alternating series
    no longer converges (the closed form remains valid there).
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    g, y = delay_closed(state.beta, state.beta_dot)[:2]
    if y >= 1.0:
        warnings.warn(f"series in y diverges for y = {y:.6g} >= 1",
                      RuntimeWarning, stacklevel=2)
    # q_n = q_(n-1) (2n - 1) / (2n), carried exactly: q_coeff(n)'s
    # Fractions, so its floats, without rebuilding each from factorials
    sums = []
    acc, q = 1.0, Fraction(1)
    for n in range(1, n_terms + 1):
        q = q * (2 * n - 1) / (2 * n)
        acc += float(q) * (-y) ** n
        sums.append(g * acc)
    return sums


# ---------------------------------------------------------------------
# Conservative Duffing approximation
# ---------------------------------------------------------------------
# Keeping the first two series terms of Q along a harmonic ansatz gives
# the double-well energy Q_c(x) = -(x^2/2 - 3x^4/8) in rest-energy
# units and x in units of d (the half-quantum hbar*omega/2 with
# omega = alpha c / 2d equals m c^2 exactly, absorbing the prefactor).

def duffing_potential(x):
    """Q_c(x) = -x^2/2 + 3x^4/8 (rest-energy units, x in d), of a float
    or elementwise of an array."""
    return -0.5 * x * x + 0.375 * _power(x, 4)


def duffing_force(x):
    """-dQ_c/dx = x - (3/2) x^3, of a float or elementwise of an array."""
    return x - 1.5 * _power(x, 3)


def _power(x, n: int):
    """x ** n; a float power past the float range, where Python raises
    OverflowError, is the inf of its sign, as numpy's power gives it."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def duffing_stationary_points() -> tuple[float, float, float]:
    """Roots of dQ_c/dx: the origin and +-sqrt(2/3) (units d)."""
    w = math.sqrt(2.0 / 3.0)
    return (-w, 0.0, w)


def energy_scale_joules(constants: PhysicalConstants) -> float:
    """One rest-energy unit in joules (m_e c^2 for the given constants)."""
    return constants.m_electron * constants.c ** 2
