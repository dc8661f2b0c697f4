"""Closed-form condenser capacities and comparison bounds.

Everything in this module is a formula: capacities of hyperbolic-disk
plates, the reference disk/circle constants M1 and M2, and the two-sided
capacity bounds for the centered equilateral triangle with vertices s,
s e^{2 pi i/3}, s e^{4 pi i/3}.  No numerics beyond scalar special
functions; the Nystrom solver lives in capsolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import mu, mu_extended

__all__ = [
    "TriangleBoundSet",
    "cap_hyp_disk",
    "hat_triangle_cap",
    "ref_M1",
    "ref_M2",
    "ref_cap_area",
    "ref_cap_perim",
    "triangle_bounds_from_s",
]


def cap_hyp_disk(M: float) -> float:
    """cap(D, B_rho(x, M)) = 2 pi / (-log th(M/2)); center-free by
    Mobius invariance."""
    if M <= 0.0:
        raise ValueError(f"hyperbolic radius must be positive, got {M}")
    return 2.0 * math.pi / (-math.log(math.tanh(0.5 * M)))


def ref_M1(c: float) -> float:
    """M1 = sqrt(1 + 4 pi / c): the disk |z| <= 1/M1 has hyperbolic
    area c.  The formula is valid for every c > 0; the sequence
    experiments use it for c < pi only."""
    if c <= 0.0:
        raise ValueError(f"ref_M1 requires c > 0, got {c}")
    return math.sqrt(1.0 + 4.0 * math.pi / c)


def ref_M2(c: float) -> float:
    """M2 = sqrt(1 + 4 pi^2/c^2) + 2 pi/c: the circle |z| = 1/M2 has
    hyperbolic perimeter c."""
    if c <= 0.0:
        raise ValueError(f"ref_M2 requires c > 0, got {c}")
    t = 2.0 * math.pi / c
    return math.sqrt(1.0 + t * t) + t


def ref_cap_area(c: float) -> float:
    """Capacity 2 pi / log M1(c) of the reference disk of h-area c."""
    return 2.0 * math.pi / math.log(ref_M1(c))


def ref_cap_perim(c: float) -> float:
    """Capacity 2 pi / log M2(c) of the reference disk of h-perimeter c."""
    return 2.0 * math.pi / math.log(ref_M2(c))


def hat_triangle_cap(s: float) -> float:
    """Exact capacity 6 pi / mu(s^3) of the three-spoke set made of the
    segments [0, s e^{2 pi i k/3}], k = 0, 1, 2."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"hat_triangle_cap requires 0 < s < 1, got {s}")
    return 6.0 * math.pi / mu_extended(s**3)


@dataclass(frozen=True)
class TriangleBoundSet:
    """Two-sided capacity bounds for the centered equilateral triangle
    with vertices s, s e^{2 pi i/3}, s e^{4 pi i/3}.

    lower is the exact capacity of the inscribed three-spoke set;
    upper_s, upper_perim and upper_area are the same upper bound written
    in terms of s, the perimeter u, and the area v respectively."""

    s: float
    lower: float
    upper_s: float
    upper_perim: float
    upper_area: float


def triangle_bounds_from_s(s: float) -> TriangleBoundSet:
    """Capacity bounds 6 pi/mu(s^3) <= cap <= 3 pi/mu(sqrt(3) s /
    sqrt(s^4 + s^2 + 1)) with the upper bound's perimeter and area
    rewrites evaluated from their own closed forms."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"triangle_bounds_from_s requires 0 < s < 1, got {s}")
    lower = hat_triangle_cap(s)
    th_u6 = math.sqrt(3.0) * s / math.sqrt(s**4 + s**2 + 1.0)
    upper_s = 3.0 * math.pi / mu_extended(th_u6)
    u = 6.0 * math.atanh(th_u6)
    upper_perim = 3.0 * math.pi / mu_extended(math.tanh(u / 6.0))
    # area from 2 ch(u/6) sin((pi - v)/6) = 1
    v = math.pi - 6.0 * math.asin(0.5 / math.cosh(u / 6.0))
    upper_area = (12.0 / math.pi) * mu(2.0 * math.sin((math.pi - v) / 6.0))
    return TriangleBoundSet(
        s=s, lower=lower, upper_s=upper_s, upper_perim=upper_perim, upper_area=upper_area
    )
