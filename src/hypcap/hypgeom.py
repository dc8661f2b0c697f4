"""Hyperbolic geometry of the unit disk.

Points of the hyperbolic plane are plain complex numbers z with |z| < 1.
Geodesics are circular arcs orthogonal to the unit circle (or diameters),
distances come from the standard Poincare metric, and polygons are closed
chains of geodesic arcs.  Everything here is exact geometry; no solver
machinery.

Polygons and triangles are measured by one rule.  The Euclidean angle
between the tangents of two sides meeting at a vertex is the hyperbolic
vertex angle (the model is conformal); the tangents come from the disk
automorphism that moves the vertex to 0, and Gauss-Bonnet turns the
angles into the area (m - 2) pi - sum(angles).  Nothing depends on where
the origin lies, and the small angles near the ideal boundary come out
without cancellation.  HypPolygon checks at construction, exactly and
from the phase steps between its vertices, that its plate is starlike
about 0: that validates the vertex list as a simple, counterclockwise
boundary.  Every side, diameter or not, is one closed form (GeodesicArc).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeometryError",
    "GeodesicArc",
    "HypDisk",
    "HypPolygon",
    "PolygonMeasures",
    "equilateral_triangle_radius",
    "geodesic_arc",
    "hyp_disk_to_euclid",
    "hyp_dist",
    "hyp_midpoint",
    "mobius",
    "polygon_measures",
    "polygon_perimeter",
    "regular_polygon",
    "regular_radius_from_area",
    "regular_radius_from_perimeter",
    "triangle_measures",
]

# normalized cross product below which a side's endpoints count as
# collinear with 0 (a radial side)
_COLLINEAR_TOL = 1e-14


class GeometryError(ValueError):
    """Invalid hyperbolic-geometric configuration."""


def _check_in_disk(z: complex, name: str = "point") -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise GeometryError(f"{name} {z} is not inside the unit disk")
    return z


def hyp_dist(x: complex, y: complex) -> float:
    """Hyperbolic (Poincare) distance between two points of the disk.

    rho = 2 arsh( |x - y| / sqrt((1 - |x|^2)(1 - |y|^2)) )
    """
    x = _check_in_disk(x, "x")
    y = _check_in_disk(y, "y")
    num = abs(x - y)
    den = math.sqrt((1.0 - abs(x) ** 2) * (1.0 - abs(y) ** 2))
    return 2.0 * math.asinh(num / den)


def mobius(a: complex, z):
    """Disk automorphism T_a(z) = (z - a) / (1 - conj(a) z).

    Sends a to 0 and preserves hyperbolic distance; z may be a complex
    scalar or a numpy array of points in the disk.
    """
    a = _check_in_disk(a, "a")
    if np.any(np.abs(z) >= 1.0):
        raise GeometryError(f"z {z} is not inside the unit disk")
    return (z - a) / (1.0 - a.conjugate() * z)


def hyp_midpoint(x: complex, y: complex) -> complex:
    """Hyperbolic midpoint of the geodesic segment from x to y."""
    x = _check_in_disk(x, "x")
    y = _check_in_disk(y, "y")
    w = mobius(x, y)  # y moved to a radial point, x to 0
    if w == 0:
        return x
    t = math.tanh(0.5 * math.atanh(abs(w)))
    m = t * w / abs(w)
    # inverse of T_x
    return (m + x) / (1.0 + x.conjugate() * m)


@dataclass(frozen=True)
class HypDisk:
    """Hyperbolic disk B_rho(center, radius), radius > 0."""

    center: complex
    radius: float

    def __post_init__(self):
        _check_in_disk(self.center, "center")
        if self.radius <= 0.0:
            raise GeometryError(f"hyperbolic radius must be positive, got {self.radius}")


def hyp_disk_to_euclid(d: HypDisk) -> tuple[complex, float]:
    """Euclidean center and radius of a hyperbolic disk.

    With t = th(M/2):  y = x (1 - t^2) / (1 - |x|^2 t^2),
    r_e = (1 - |x|^2) t / (1 - |x|^2 t^2).
    """
    x = complex(d.center)
    t = math.tanh(0.5 * d.radius)
    den = 1.0 - (abs(x) * t) ** 2
    y = x * (1.0 - t * t) / den
    r_e = (1.0 - abs(x) ** 2) * t / den
    return y, r_e


@dataclass(frozen=True)
class GeodesicArc:
    """One geodesic side from z1 to z2: an arc of a circle orthogonal to
    the unit circle, or a diameter when dtheta = 0.  The parameter t in
    [0, 1] is proportional to arc length; point(0) = z1, point(1) = z2.

    dtheta is the turn of the tangent along the side, 2 arg(1 -
    conj(z1) z2).  mobius(z1, .) has a positive derivative at z1, so the
    side leaves z1 along mobius(z1, z2), which is z2 - z1 turned by
    -dtheta/2, and it turns at a constant rate.  With x = dtheta / 2 pi
    and numpy's normalised sinc, the length is |z2 - z1| / sinc(x) and

        z(t) = z1 + (z2 - z1) t sinc(t x) / sinc(x) e^{i (t - 1) dtheta / 2}.

    At dtheta = 0 these are the segment formulas exactly, and nothing
    depends on the centre, which grows without bound as a side flattens.
    """

    z1: complex
    z2: complex
    dtheta: float

    def point(self, t):
        """Point(s) on the side at parameter t in [0, 1] (scalar or
        array).  Each is evaluated from the nearer endpoint, so that its
        rounding is relative to the corner it sits next to: from z2 the
        side runs to z1 with turn -dtheta."""
        t = np.asarray(t, dtype=float)
        first = t <= 0.5
        sign = np.where(first, 1.0, -1.0)
        s = np.where(first, t, 1.0 - t)
        x = self.dtheta / (2.0 * math.pi)
        scale = s * np.sinc(s * x) / np.sinc(x) * np.exp(-0.5j * self.dtheta * sign * (1.0 - s))
        return np.where(first, self.z1, self.z2) + sign * (self.z2 - self.z1) * scale

    def tangent(self, t):
        """Unit tangent(s) in the direction of traversal."""
        d = self.z2 - self.z1
        return d / abs(d) * np.exp(1j * self.dtheta * (np.asarray(t, dtype=float) - 0.5))

    def euclid_length(self) -> float:
        return float(abs(self.z2 - self.z1) / np.sinc(self.dtheta / (2.0 * math.pi)))


def geodesic_arc(z1: complex, z2: complex) -> GeodesicArc:
    """Geodesic side between two distinct points of the disk, with its
    turn dtheta = 2 arg(1 - conj(z1) z2) (see GeodesicArc).  The real
    part of 1 - conj(z1) z2 exceeds 1 - |z1 z2| > 0, so |dtheta| < pi."""
    z1 = _check_in_disk(z1, "z1")
    z2 = _check_in_disk(z2, "z2")
    if z1 == z2:
        raise GeometryError(f"degenerate arc: equal endpoints {z1}")
    return GeodesicArc(z1, z2, 2.0 * cmath.phase(1.0 - z1.conjugate() * z2))


def _perimeter(vertices) -> float:
    m = len(vertices)
    return sum(hyp_dist(vertices[k], vertices[(k + 1) % m]) for k in range(m))


class PolygonMeasures(NamedTuple):
    """Area, perimeter, and interior angles; angles[k] sits at vertex k."""

    area: float
    perimeter: float
    angles: list[float]


def _measures(vertices) -> PolygonMeasures:
    """Measures of the closed chain of geodesic sides through the
    vertices, in either orientation.

    T_v = mobius(v, .) has a positive derivative at v, so T_v(w) points
    the way the geodesic from v to w leaves v.  The turn at v is the
    phase of t_out / t_in for the side tangents t_out ~ T_v(next) and
    t_in ~ -T_v(prev).  A simple chain turns by 2 pi + area in total at
    its vertices, so the sign of the turn sum is the orientation and each
    interior angle is pi - sign * turn.
    """
    m = len(vertices)
    turns = []
    for k in range(m):
        v, nxt = vertices[k], vertices[(k + 1) % m]
        if v == nxt:
            raise GeometryError(f"consecutive vertices {k} and {(k + 1) % m} coincide")
        turns.append(cmath.phase(-mobius(v, nxt) / mobius(v, vertices[k - 1])))
    sign = math.copysign(1.0, sum(turns))
    angles = [math.pi - sign * turn for turn in turns]
    area = (m - 2) * math.pi - sum(angles)
    if area <= 0.0:
        raise GeometryError("degenerate polygon: nonpositive angle defect")
    return PolygonMeasures(area=area, perimeter=_perimeter(vertices), angles=angles)


def triangle_measures(v1: complex, v2: complex, v3: complex) -> PolygonMeasures:
    """Measures of the geodesic triangle with the given vertices, in any
    order; angles[i] sits at the i-th vertex.  The triangle need not
    contain the origin."""
    return _measures([v1, v2, v3])


@dataclass(frozen=True)
class HypPolygon:
    """Closed hyperbolic polygon, counterclockwise, starlike about 0.

    Construct through from_vertices (which normalizes orientation and
    checks that the plate is starlike) or regular_polygon.
    polygon_measures does not need 0 inside; the starlike check is input
    validation.
    """

    vertices: tuple[complex, ...]
    sides: tuple[GeodesicArc, ...]

    @property
    def m(self) -> int:
        return len(self.vertices)

    @staticmethod
    def from_vertices(vertices) -> "HypPolygon":
        """Polygon through the vertices, in either orientation, if it is
        starlike about 0.

        A side whose endpoints are collinear with 0 is radial: some ray
        meets the boundary in a whole segment, or 0 is on the boundary.
        Any other side is a geodesic that misses 0 and meets each ray
        from 0 at most once, so the phase moves monotonically along it,
        by the principal phase step between its ends.  The boundary is
        therefore starlike exactly when no side is radial, the steps sum
        to +-2 pi (the sign is the orientation), and every step has the
        sign of the sum.
        """
        vs = [_check_in_disk(v, f"vertex {k}") for k, v in enumerate(vertices)]
        m = len(vs)
        if m < 3:
            raise GeometryError(f"polygon needs at least 3 vertices, got {m}")
        for k in range(m):
            z1, z2 = vs[k], vs[(k + 1) % m]
            if z1 == z2:
                raise GeometryError(f"consecutive vertices {k} and {(k + 1) % m} coincide")
            if abs((z1.conjugate() * z2).imag) <= _COLLINEAR_TOL * abs(z1) * abs(z2):
                raise GeometryError("polygon has a radial side; not starlike about 0")
        steps = [cmath.phase(vs[(k + 1) % m] / vs[k]) for k in range(m)]
        if sum(steps) < 0:
            # clockwise: reversing the list negates every step
            vs, steps = vs[::-1], [-step for step in steps]
        if min(steps) <= 0.0 or abs(sum(steps) - 2.0 * math.pi) > 1e-6:
            raise GeometryError("polygon is not starlike with respect to 0")
        sides = tuple(geodesic_arc(vs[k], vs[(k + 1) % m]) for k in range(m))
        return HypPolygon(vertices=tuple(vs), sides=sides)


def regular_polygon(m: int, r: float) -> HypPolygon:
    """Regular hyperbolic m-gon with vertices r exp(2 pi i k / m)."""
    if m < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {m}")
    if not 0.0 < r < 1.0:
        raise GeometryError(f"vertex radius must be in (0, 1), got {r}")
    vs = [r * cmath.exp(2j * math.pi * k / m) for k in range(m)]
    return HypPolygon.from_vertices(vs)


def polygon_perimeter(p: HypPolygon) -> float:
    """Sum of the hyperbolic side lengths."""
    return _perimeter(p.vertices)


def polygon_measures(p: HypPolygon) -> PolygonMeasures:
    """Area, perimeter, and interior vertex angles of a polygon."""
    return _measures(p.vertices)


def equilateral_triangle_radius(omega: float) -> float:
    """Vertex radius r of the equilateral triangle with interior angle omega.

    The triangle r, r e^{2 pi i/3}, r e^{4 pi i/3} has all angles omega
    exactly when its area is pi - 3 omega, so r comes from
    regular_radius_from_area; r -> 1 as omega -> 0 and r -> 0 as
    omega -> pi/3, with no cancellation at either end.
    """
    if not 0.0 < omega < math.pi / 3.0:
        raise GeometryError(f"equilateral angle must lie in (0, pi/3), got {omega}")
    return regular_radius_from_area(3, math.pi - 3.0 * omega)


def regular_radius_from_perimeter(m: int, L: float) -> float:
    """Vertex radius of the regular m-gon with hyperbolic perimeter L.

    Stable rearrangement of r = (-sin(pi/m) + sqrt(sin^2(pi/m) +
    sh^2(L/2m))) / sh(L/2m).
    """
    if m < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {m}")
    if L <= 0.0:
        raise GeometryError(f"perimeter must be positive, got {L}")
    s = math.sinh(0.5 * L / m)
    a = math.sin(math.pi / m)
    return s / (a + math.hypot(a, s))


def regular_radius_from_area(m: int, c: float) -> float:
    """Vertex radius of the regular m-gon with hyperbolic area c.

    The centre, a vertex and the midpoint of a side span a right triangle
    with angles pi/m at the centre and alpha/2 at the vertex, where the
    interior angle is alpha = ((m - 2) pi - c) / m by Gauss-Bonnet.  Its
    hypotenuse rho is the hyperbolic vertex radius, so
    ch rho = cot(pi/m) cot(alpha/2), and r = th(rho/2) gives

        r^2 = (ch rho - 1) / (ch rho + 1) = sin(c/2m) / sin((4 pi + c)/2m),

    a ratio of two positive sines with no cancellation.  The attainable
    range (0, (m-2) pi) ends at the ideal polygon, r = 1.
    """
    if m < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {m}")
    if not 0.0 < c < (m - 2) * math.pi:
        raise GeometryError(f"area {c} outside the attainable range (0, {(m - 2) * math.pi})")
    r = math.sqrt(math.sin(0.5 * c / m) / math.sin(0.5 * (4.0 * math.pi + c) / m))
    if r > 1.0 - 1e-12:
        raise GeometryError(f"area {c} not attainable below the ideal polygon limit")
    return r
