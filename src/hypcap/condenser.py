"""Closed-form condenser capacities and comparison bounds.

Everything in this module is a formula, one per quantity, each accurate
over its whole domain: the capacity of a hyperbolic disk, of the
reference disks of given hyperbolic area or perimeter, and the two
capacity bounds, lower and upper, for the centered equilateral triangle
with vertices s, s e^{2 pi i/3}, s e^{4 pi i/3}.  No numerics beyond
scalar special functions; the Nystrom solver lives in capsolve.
"""

from __future__ import annotations

import math
import sys

from .hypgeom import _is_real
from .specfun import mu

__all__ = [
    "cap_hyp_disk",
    "ref_cap_area",
    "ref_cap_perim",
    "triangle_bounds_from_s",
]


def cap_hyp_disk(M: float) -> float:
    """cap(D, B_rho(x, M)) = 2 pi / (-log th(M/2)); center-free by
    Mobius invariance.  Written as 2 pi / log1p(2 / expm1(M)), which has
    no cancellation as th(M/2) rounds to 1; where 2 / expm1(M)
    overflows (M below about 1e-308) the log is log 2 - log M."""
    if not _is_real(M) or not 0.0 < M < math.inf:
        raise ValueError(f"hyperbolic radius must be positive and finite, got {M}")
    q = 2.0 / math.expm1(M)
    log_q = math.log1p(q) if q < math.inf else math.log(2.0) - math.log(M)
    cap = 2.0 * math.pi / log_q
    if cap == math.inf:
        raise OverflowError(f"cap_hyp_disk({M}) exceeds the float range")
    return cap


def ref_cap_area(c: float) -> float:
    """Capacity 2 pi / log M1 = 4 pi / log1p(4 pi / c) of the reference
    disk |z| <= 1/M1 of hyperbolic area c, M1 = sqrt(1 + 4 pi / c);
    where 4 pi / c overflows the log is log(4 pi) - log c."""
    if not _is_real(c) or not 0.0 < c < math.inf:
        raise ValueError(f"ref_cap_area requires 0 < c < inf, got {c}")
    q = 4.0 * math.pi / c
    log_q = math.log1p(q) if q < math.inf else math.log(4.0 * math.pi) - math.log(c)
    return 4.0 * math.pi / log_q


def ref_cap_perim(c: float) -> float:
    """Capacity 2 pi / log M2 = 2 pi / arsh(2 pi / c) of the reference
    disk |z| <= 1/M2 of hyperbolic perimeter c, M2 = sqrt(1 + 4 pi^2 /
    c^2) + 2 pi / c; the paper's f1.  Where 2 pi / c overflows, arsh of
    it is log(4 pi) - log c to rounding."""
    if not _is_real(c) or not 0.0 < c < math.inf:
        raise ValueError(f"ref_cap_perim requires 0 < c < inf, got {c}")
    q = 2.0 * math.pi / c
    log_q = math.asinh(q) if q < math.inf else math.log(4.0 * math.pi) - math.log(c)
    return 2.0 * math.pi / log_q


def triangle_bounds_from_s(s: float) -> tuple[float, float]:
    """The two capacity bounds (lower, upper) = (6 pi/mu(s^3), 3 pi/mu(sqrt(3)
    s/q)), q = sqrt(s^4 + s^2 + 1), of the centered equilateral triangle;
    lower is the exact capacity of its three spokes.  Each mu is passed its
    complementary modulus, sqrt(1 - s^2) q and (1 - s^2)/q, free of the
    cancellation in 1 - r^2 as s -> 1.  Where s^3 is subnormal or 0 (s
    below about 2.8e-103), mu(s^3) is log 4 - 3 log s, which mu(r) equals
    to 1e-16 far above that."""
    if not _is_real(s) or not 0.0 < s < 1.0:
        raise ValueError(f"triangle_bounds_from_s requires 0 < s < 1, got {s}")
    r, d, q = s**3, (1.0 - s) * (1.0 + s), math.sqrt(s**4 + s**2 + 1.0)
    upper = 3.0 * math.pi / mu(math.sqrt(3.0) * s / q, d / q)
    if r < sys.float_info.min:
        return 6.0 * math.pi / (math.log(4.0) - 3.0 * math.log(s)), upper
    return 6.0 * math.pi / mu(r, math.sqrt(d) * q), upper
