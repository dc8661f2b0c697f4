"""Closed-form condenser capacities and comparison bounds.

Everything in this module is a formula: capacities of hyperbolic-disk
plates, the radii of the area- and perimeter-equivalent single disks for
a family of disks, the reference disk/circle constants M1 and M2, and
the two-sided capacity bounds for the centered equilateral triangle with
vertices s, s e^{2 pi i/3}, s e^{4 pi i/3}.  No numerics beyond scalar
special functions; the Nystrom solver lives in capsolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .specfun import mu, mu_extended

__all__ = [
    "TriangleBoundSet",
    "cap_hyp_disk",
    "hat_triangle_cap",
    "isoarea_radius",
    "isoperim_radius",
    "lemma_f",
    "ref_M1",
    "ref_M2",
    "ref_cap_area",
    "ref_cap_perim",
    "triangle_bounds_from_s",
    "triangle_s_from_area",
    "triangle_s_from_perimeter",
]


def cap_hyp_disk(M: float) -> float:
    """cap(D, B_rho(x, M)) = 2 pi / (-log th(M/2)); center-free by
    Mobius invariance."""
    if M <= 0.0:
        raise ValueError(f"hyperbolic radius must be positive, got {M}")
    return 2.0 * math.pi / (-math.log(math.tanh(0.5 * M)))


def _check_radii(radii: Sequence[float]) -> list[float]:
    rs = [float(L) for L in radii]
    if not rs:
        raise ValueError("need at least one disk radius")
    if any(L <= 0.0 for L in rs):
        raise ValueError(f"all radii must be positive, got {rs}")
    return rs


def isoarea_radius(radii: Sequence[float]) -> float:
    """Radius L of the single disk whose hyperbolic area equals the sum
    of the disk areas: sh^2(L/2) = sum sh^2(L_j/2)."""
    rs = _check_radii(radii)
    s = sum(math.sinh(0.5 * L) ** 2 for L in rs)
    return 2.0 * math.asinh(math.sqrt(s))


def isoperim_radius(radii: Sequence[float]) -> float:
    """Radius L-hat of the single disk whose hyperbolic perimeter equals
    the sum of the disk perimeters: sh(L-hat) = sum sh(L_j)."""
    rs = _check_radii(radii)
    return math.asinh(sum(math.sinh(L) for L in rs))


def lemma_f(x: float, radii: Sequence[float]) -> float:
    """Interpolating function between the two comparison radii:
    f(x) = 2 x g(x) + g(x)^2 with g(x) = sum (sqrt(sh^2 L_j + x^2) - x);
    f(0) = sh^2(L-hat) and f(1) = sh^2(L), and f decreases on [0, 1]."""
    rs = _check_radii(radii)
    g = sum(math.sqrt(math.sinh(L) ** 2 + x * x) - x for L in rs)
    return 2.0 * x * g + g * g


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


def triangle_s_from_perimeter(u: float) -> float:
    """Vertex radius s of the centered equilateral triangle with
    hyperbolic perimeter u, via s^3 = -sigma + sqrt(sigma^2 + 1),
    sigma = 3 sqrt(3) / (2 sh(u/6) th^2(u/6))."""
    if u <= 0.0:
        raise ValueError(f"perimeter must be positive, got {u}")
    x = u / 6.0
    sigma = 3.0 * math.sqrt(3.0) / (2.0 * math.sinh(x) * math.tanh(x) ** 2)
    s3 = -sigma + math.hypot(sigma, 1.0)
    return s3 ** (1.0 / 3.0)


def triangle_s_from_area(v: float) -> float:
    """Vertex radius s of the centered equilateral triangle with
    hyperbolic area v, via s^3 = ((1 - tau)/(1 + tau))^(3/2),
    tau = sqrt(3) tan((pi - v)/6)."""
    if not 0.0 < v < math.pi:
        raise ValueError(f"triangle area must lie in (0, pi), got {v}")
    tau = math.sqrt(3.0) * math.tan((math.pi - v) / 6.0)
    return math.sqrt((1.0 - tau) / (1.0 + tau))


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
