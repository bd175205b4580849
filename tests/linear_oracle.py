"""Exact linear oracle for the emitter-map march of a rest kick.

About rest the emitter map's delay is r = 1 + O(kick^2), so the map
x(s + r) = x(s) + r beta(s) + gamma^2 beta_dot(s) linearizes to

    x(t) = (1 + D + D^2) x(t - 1),

and generation k of a seed offset x0 has the velocity

    beta_k(t) = D (1 + D + D^2)^k x0(t - k).

The rest kick's offset is a scaled bump b(v) = exp(-1/w), w = 1 - v^2,
whose derivatives are b^(n) = P_n(v) w^(-2n) b with integer
polynomials P_0 = 1, P_{n+1} = P_n' w^2 + (4 n v w - 2 v) P_n.  The
oracle carries those polynomials exactly and evaluates them in mpmath,
so it shares no arithmetic with the march; the one number it takes
from the package is the amplitude convention (the bump's sampled
peak |b''|).
"""

from __future__ import annotations

import functools

import mpmath

from zitterlab import trajectory

DIGITS = 40


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


@functools.lru_cache(maxsize=None)
def bump_polys(n_max: int) -> list[list[int]]:
    """P_0 .. P_n_max as ascending integer coefficient lists in v."""
    w = [1, 0, -1]
    w2 = _poly_mul(w, w)
    polys = [[1]]
    for n in range(n_max):
        p = polys[-1]
        dp = [k * c for k, c in enumerate(p)][1:] or [0]
        # (4 n v w - 2 v) = -2 v + 4 n v - 4 n v^3
        factor = [0, 4 * n - 2, 0, -4 * n]
        polys.append(_poly_add(_poly_mul(dp, w2), _poly_mul(factor, p)))
    return polys


@functools.lru_cache(maxsize=None)
def generation_weights(k: int) -> list[int]:
    """Coefficients of D^0 .. D^(2k+1) in D (1 + D + D^2)^k."""
    out = [0, 1]
    for _ in range(k):
        out = _poly_mul(out, [1, 1, 1])
    return out


class RestKickOracle:
    """beta_k(t) of SeedHistory.rest_kick(amplitude), linearized."""

    def __init__(self, amplitude: float):
        self.center = mpmath.mpf(trajectory._BUMP_CENTER)
        self.half = mpmath.mpf(trajectory._BUMP_HALFWIDTH)
        with mpmath.workdps(DIGITS):
            self.scale = (mpmath.mpf(amplitude) * self.half ** 2
                          / mpmath.mpf(trajectory._bump_accel_peak()))

    def beta(self, k: int, t) -> mpmath.mpf:
        """Generation k's velocity at t, zero off its support."""
        weights = generation_weights(k)
        polys = bump_polys(len(weights) - 1)
        with mpmath.workdps(DIGITS):
            v = (mpmath.mpf(t) - k - self.center) / self.half
            if abs(v) >= 1:
                return mpmath.mpf(0)
            w = 1 - v * v
            total = mpmath.mpf(0)
            for n, c in enumerate(weights):
                if c:
                    p = mpmath.polyval(polys[n][::-1], v)
                    total += c * p * w ** (-2 * n) / self.half ** n
            return self.scale * total * mpmath.exp(-1 / w)

    def light_barrier(self, k: int) -> float:
        """The first t of generation k's delay (k - 1, k) where |beta_k|
        reaches 1: a scan in steps of 1e-4, then bisection to 1e-12."""
        a = k - 1.0
        for i in range(1, 10_001):
            b = k - 1.0 + i * 1e-4
            if abs(self.beta(k, b)) >= 1:
                break
            a = b
        else:
            raise ValueError(f"|beta_{k}| stays below 1")
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            if abs(self.beta(k, mid)) >= 1:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)
