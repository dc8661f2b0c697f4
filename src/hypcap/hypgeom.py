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
without cancellation.  HypPolygon still checks at construction, on a
dense angular grid, that its plate is starlike about 0: that validates
the vertex list as a simple, counterclockwise boundary.
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
    "hyp_disk_area",
    "hyp_disk_perimeter",
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

# a side is drawn as a straight segment when its geodesic's sagitta is
# below this fraction of its chord: below double-precision geometry noise
_SAGITTA_TOL = 1e-14
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


def hyp_disk_area(L: float) -> float:
    """Hyperbolic area 4 pi sh^2(L/2) of a disk of hyperbolic radius L."""
    if L <= 0.0:
        raise GeometryError(f"hyperbolic radius must be positive, got {L}")
    return 4.0 * math.pi * math.sinh(0.5 * L) ** 2


def hyp_disk_perimeter(L: float) -> float:
    """Hyperbolic perimeter 2 pi sh(L) of a circle of hyperbolic radius L."""
    if L <= 0.0:
        raise GeometryError(f"hyperbolic radius must be positive, got {L}")
    return 2.0 * math.pi * math.sinh(L)


@dataclass(frozen=True)
class GeodesicArc:
    """One geodesic side: a circular arc orthogonal to the unit circle,
    or a diametral straight segment.  Oriented from z1 to z2; point(0) = z1
    and point(1) = z2, with the parameter proportional to arc length."""

    kind: str  # "circular" or "segment"
    z1: complex
    z2: complex
    center: complex | None = None
    radius: float | None = None
    dtheta: float | None = None

    def point(self, t):
        """Point(s) on the arc at parameter t in [0, 1] (scalar or array).

        z1 turned about the centre by t dtheta, written as z1 plus the
        chord (z1 - c)(e^{i t dtheta} - 1): the rounding is relative to
        the chord, however far away the centre lies."""
        t = np.asarray(t, dtype=float)
        if self.kind == "segment":
            return self.z1 + t * (self.z2 - self.z1)
        half = 0.5 * self.dtheta * t
        return self.z1 + (self.z1 - self.center) * (2j * np.sin(half) * np.exp(1j * half))

    def tangent(self, t):
        """Unit tangent(s) in the direction of traversal."""
        t = np.asarray(t, dtype=float)
        if self.kind == "segment":
            d = self.z2 - self.z1
            d /= abs(d)
            return np.broadcast_to(d, t.shape).copy() if t.shape else d
        u1 = (self.z1 - self.center) / self.radius
        return 1j * math.copysign(1.0, self.dtheta) * u1 * np.exp(1j * self.dtheta * t)

    def euclid_length(self) -> float:
        if self.kind == "segment":
            return abs(self.z2 - self.z1)
        return abs(self.dtheta) * self.radius

    def orthogonality_residual(self) -> float:
        """| |c|^2 - R^2 - 1 | for circular arcs, 0 for segments."""
        if self.kind == "segment":
            return 0.0
        return abs(abs(self.center) ** 2 - self.radius**2 - 1.0)


def geodesic_arc(z1: complex, z2: complex) -> GeodesicArc:
    """Geodesic segment between two distinct points of the disk.

    The geodesic lies on the circle through z1, z2 with |c|^2 = R^2 + 1,
    from the 2x2 linear system 2 Re(conj(z) c) = |z|^2 + 1, and the
    sub-arc inside the disk is returned.  A side whose arc is within
    rounding of its chord is a straight segment instead: a diameter, or
    a side with an endpoint so near 0 that its centre would swamp (or
    overflow past) the endpoints.
    """
    z1 = _check_in_disk(z1, "z1")
    z2 = _check_in_disk(z2, "z2")
    if z1 == z2:
        raise GeometryError(f"degenerate arc: equal endpoints {z1}")
    # solve 2(x_k a + y_k b) = |z_k|^2 + 1 for c = a + i b:
    # c det = i (r2 z1 - r1 z2)
    r1 = abs(z1) ** 2 + 1.0
    r2 = abs(z2) ** 2 + 1.0
    det = 2.0 * (z1.real * z2.imag - z1.imag * z2.real)
    cdet = 1j * (r2 * z1 - r1 * z2)
    # sagitta chord^2 / (8 |c|) against _SAGITTA_TOL * chord, free of
    # the division that overflows c for an endpoint near 0
    if abs(z1 - z2) * abs(det) <= 8.0 * _SAGITTA_TOL * abs(cdet):
        return GeodesicArc(kind="segment", z1=z1, z2=z2)
    c = cdet / det
    u1 = z1 - c
    radius = abs(u1)
    # the turn from z1 - c to z2 - c = u1 + (z2 - z1), as the phase of
    # conj(u1)(z2 - c), whose imaginary part has no cancellation
    dth = cmath.phase(radius**2 + u1.conjugate() * (z2 - z1))
    return GeodesicArc(kind="circular", z1=z1, z2=z2, center=c, radius=radius, dtheta=dth)


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
    runs the starlike check) or regular_polygon.  polygon_measures does
    not need 0 inside; the starlike check is input validation.
    """

    vertices: tuple[complex, ...]
    sides: tuple[GeodesicArc, ...]

    @property
    def m(self) -> int:
        return len(self.vertices)

    @staticmethod
    def from_vertices(vertices) -> "HypPolygon":
        vs = [_check_in_disk(v, f"vertex {k}") for k, v in enumerate(vertices)]
        m = len(vs)
        if m < 3:
            raise GeometryError(f"polygon needs at least 3 vertices, got {m}")
        for v in vs:
            if v == 0:
                raise GeometryError("vertex at the origin; the polygon must be starlike about 0")
        for k in range(m):
            if vs[k] == vs[(k + 1) % m]:
                raise GeometryError(f"consecutive vertices {k} and {(k + 1) % m} coincide")
        # orientation from the winding of the vertex loop about 0
        winding = sum(
            math.remainder(cmath.phase(vs[(k + 1) % m]) - cmath.phase(vs[k]), 2 * math.pi)
            for k in range(m)
        )
        if winding < 0:
            vs = vs[::-1]
        sides = tuple(geodesic_arc(vs[k], vs[(k + 1) % m]) for k in range(m))
        poly = HypPolygon(vertices=tuple(vs), sides=sides)
        poly._verify_starlike()
        return poly

    def _verify_starlike(self) -> None:
        """Each ray from 0 must cross the boundary exactly once, i.e. the
        boundary angle is strictly monotone with total increase 2 pi;
        sampled on a dense angular grid (>= 720 points total)."""
        k = max(16, -(-720 // self.m))
        # a side whose endpoints are collinear with 0 is radial: some ray
        # meets the boundary in a whole segment, or 0 is on the boundary
        for side in self.sides:
            cross = (side.z1.conjugate() * side.z2).imag
            if abs(cross) <= _COLLINEAR_TOL * abs(side.z1) * abs(side.z2):
                raise GeometryError("polygon has a radial side; not starlike about 0")
        t = np.arange(1, k + 1) / k
        pts = np.concatenate(
            [np.array([complex(self.vertices[0])])] + [side.point(t) for side in self.sides]
        )
        if np.max(np.abs(pts)) >= 1.0:
            raise GeometryError("polygon boundary leaves the unit disk")
        ang = np.unwrap(np.angle(pts))
        if np.min(np.diff(ang)) < -1e-12:
            raise GeometryError("polygon is not starlike with respect to 0")
        if abs((ang[-1] - ang[0]) - 2.0 * math.pi) > 1e-6:
            raise GeometryError("polygon boundary does not wind once around 0")


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
