"""The Grotzsch modulus mu and the capacity functions built on it.

All functions are pure and operate on Python floats.  The decreasing
homeomorphism

    mu(r) = (pi/2) * K(sqrt(1 - r^2)) / K(r),   r in (0, 1],

is the modulus of the Grotzsch ring (D, [0, r]); K is the complete
elliptic integral of the first kind, and both of its values come from
the arithmetic-geometric-mean iteration, K(r) = pi / (2 AGM(1, sqrt(1 -
r^2))), which converges quadratically and gives close to full double
precision.  The reciprocal of mu scales several closed-form condenser
capacities used elsewhere in the package.
"""

from __future__ import annotations

import math

__all__ = [
    "mu",
    "mu_extended",
    "f1",
    "f2",
    "MU_MIN_R",
]

# Arguments of mu below this floor lose precision in double arithmetic
# and are rejected rather than silently degraded.
MU_MIN_R = 1e-8

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 64


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def mu(r: float) -> float:
    """Modulus of the Grotzsch ring (D, [0, r]) for r in (0, 1].

    Decreasing homeomorphism of (0, 1] onto [0, inf) with mu(1) = 0.
    Computed from two AGM values; inputs below 1e-8 are rejected because
    the complementary modulus saturates in double precision there.
    """
    if not MU_MIN_R <= r <= 1.0:
        raise ValueError(f"mu requires {MU_MIN_R} <= r <= 1, got {r}")
    if r == 1.0:
        return 0.0
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    # K(r) = pi / (2 AGM(1, rc)),  K(rc) = pi / (2 AGM(1, r))
    return 0.5 * math.pi * _agm(1.0, rc) / _agm(1.0, r)


def mu_extended(r: float) -> float:
    """mu continued below the 1e-8 floor by mu(r) = log(4/r) + O(r^2).

    The correction term is below double-precision noise exactly where
    the AGM route is rejected, so this is a seamless extension for
    arguments like s^3 that underflow the floor.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"mu_extended requires 0 < r <= 1, got {r}")
    if r >= MU_MIN_R:
        return mu(r)
    return math.log(4.0) - math.log(r)


def f1(c: float) -> float:
    """Capacity of the closed hyperbolic disk about 0 with hyperbolic
    perimeter c: 2*pi / log(sqrt(1 + 4 pi^2/c^2) + 2 pi/c)."""
    if c <= 0.0:
        raise ValueError(f"f1 requires c > 0, got {c}")
    u = 2.0 * math.pi / c
    return 2.0 * math.pi / math.asinh(u)


def f2(c: float) -> float:
    """Capacity of the radial slit [0, th(c/4)], the degenerate plate of
    hyperbolic perimeter c (twice its diameter): 2*pi / mu(th(c/4)).

    Evaluated through the reflection mu(th x) = (pi^2/4) / mu(1/ch x),
    which stays accurate where th(c/4) rounds to 1; for very large c the
    complementary argument 1/ch(c/4) underflows past the mu floor and
    the asymptotic mu(s) ~ log(4/s) takes over (error below 1e-15
    there).
    """
    if c <= 0.0:
        raise ValueError(f"f2 requires c > 0, got {c}")
    x = 0.25 * c
    t = math.tanh(x)
    if t <= 0.9:
        return 2.0 * math.pi / mu_extended(t)
    # 1 / ch x without the overflow of ch x
    e = math.exp(-x)
    s = 2.0 * e / (1.0 + e * e)
    if s >= MU_MIN_R:
        return (8.0 / math.pi) * mu(s)
    # log(4 ch x) without overflow; asymptotic error below 1e-15
    log_4ch = math.log(2.0) + x + math.log1p(e * e)
    return (8.0 / math.pi) * log_4ch
