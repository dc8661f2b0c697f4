"""Numerical capacity cap(D, E) by charge simulation.

The condenser potential (1 on the plate boundary, 0 on the unit circle)
is represented as a sum of reflected logarithmic point sources and
fitted by least-squares collocation on the plate boundary:

    u(z) = sum_j b_j (log|z - p_j| - log|1 - conj(p_j) z|),

with sources p_j strictly inside the plate E.  Each basis function is
the Green's function of the unit disk with pole p_j: the source p_j is
paired with its inversion 1/conj(p_j) at opposite strength, so the
function vanishes identically on the unit circle.  The outer condition
is therefore exact, nothing is collocated or checked on |z| = 1, and
plates reaching near the unit circle need no outer sources to resolve
their reflected singularities.  The capacity is the flux through any
contour separating the plates, cap = -2 pi sum_j b_j; the annulus
E = {|z| <= a} with exact potential log|z| / log a fixes the sign.

Inner source layout for polygons (all three groups lie inside E because
E is starlike about 0):

* a deep ring: the plate boundary scaled by 0.65 toward the origin,
  which handles the smooth part of the potential;
* per corner, a ladder of sources marching from the vertex toward the
  origin at geometrically shrinking depths, which captures the corner
  singularity scale by scale;
* along sides adjacent to sharp corners, a thin layer of sources that
  tracks the boundary at depth proportional to arc distance times the
  opening angle; the reflected continuation of the potential across a
  side has singularities exactly that shallow, so neither the ring nor
  the bisector ladder can substitute for it.

Disk-shaped plates use a concentric source ring plus one source at the
hyperbolic center, where a single reflected kernel is the exact
solution.

A polygon plate with n-fold rotational symmetry about 0 (a regular
m-gon has n = m) has a rotation-invariant potential, because its
boundary data are constant, so sources that the rotation by 2 pi / n
permutes can share one coefficient.  The solver then lays out one
sector only (sides and corners 0 .. m/n - 1), keeps one representative
per orbit of the full layout's sources, and fits with the orbit-summed
kernel

    G_n(z, p) = sum_{j<n} (log|z - w^j p| - log|1 - conj(w^j p) z|)
              = log(|z^n - p^n| / |1 - conj(p^n) z^n|),   w = exp(2 pi i / n),

which the products over the rotations put in closed form, one log per
entry.  When the vertices form one rotation orbit (n = m: every
regular polygon) the plate is also symmetric under the reflection
sigma(z) = (v_0 / |v_0|)^2 conj(z) through 0 and vertex 0.  Modulo
rotations sigma maps side 0 onto itself by t -> 1 - t, so the solver
keeps the half of the sector's layout with side parameter t <= 1/2
(the corner-0 ladder lies on the mirror axis and is kept whole) and
fits with the columns G_n(z, p) + G_n(z, sigma p); an on-axis source
just doubles its column.  The capacity is -2 pi k sum_j b_j with k = n
plate images per source, or 2n with the mirror.  The system shrinks
n-fold (2n-fold with the mirror, less the axis ladder) in rows and in
columns.  Symmetry 1 (generic plates and disks) is the full layout
with the plain kernel.

Collocation nodes per side combine an endpoint-graded bulk grid (the
composed map w(t) = t - sin(2 pi t)/(2 pi)) with geometric scale sets
matching the corner ladders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .hypgeom import (
    GeometryError,
    HypDisk,
    HypPolygon,
    hyp_disk_to_euclid,
    hyp_midpoint,
)

__all__ = [
    "BoundarySet",
    "ConfigurationError",
    "Discretization",
    "SolveReport",
    "SolverError",
    "SolverParams",
    "cap_disk",
    "cap_euclid_disk",
    "cap_polygon",
    "discretize",
    "solve_capacity",
]

_RANK_RTOL = 1e-12
# geometric depth ratio of the corner ladders
_LADDER_SIGMA = 2.0**-0.5
# plate boundary scale factor for the deep source ring
_RING_SCALE = 0.65
# corner regimes by interior angle: needle and sharp corners get a dense
# hugging layer, mild corners a light one; needle corners also get a
# bisector ladder 16 rungs longer than the others
_NEEDLE_SIN = 0.12
_SHARP_SIN = 0.7
# sources per octave in a hugging layer
_HUG_SHARP = 2
_HUG_MILD = 1
# relative tolerance of the rotational-symmetry test on polygon vertices
_SYMMETRY_RTOL = 1e-12
# rows per block of the kernel build; bounds its complex temporaries
_KERNEL_ROWS = 512


def _corner_cps(angle: float, hug_offset: float, hug: int) -> int:
    """Collocation nodes per depth octave on each side of a corner.

    Hugging sources sit hug_offset*sin(angle) of their arc distance away
    from the wall and ladder rungs sin(angle/2) of their depth; the wall
    node spacing must stay below the smaller clearance or the least
    squares cannot see spikes between nodes.  An octave places one
    ladder rung and hug hugging sources on each of the two sides, so at
    least 2 * hug + 1 nodes per side keep it twice overdetermined.
    """
    c_hug = hug_offset * math.sin(min(angle, 0.5 * math.pi))
    c_lad = math.sin(0.5 * min(angle, math.pi))
    c = min(c_hug, c_lad, 0.9)
    need = math.log(_LADDER_SIGMA) / math.log(1.0 - c)
    return min(28, max(2 * hug + 1, int(math.ceil(need)) + 2))


def _rotates_onto_itself(vertices, n: int) -> bool:
    """Whether n divides m and rotation by 2 pi / n about 0 maps vertex k
    onto vertex k + m/n, to 1e-12 of the largest vertex radius."""
    v = np.asarray(vertices, dtype=complex)
    if len(v) % n:
        return False
    moved = cmath.exp(2j * math.pi / n) * v
    err = np.max(np.abs(np.roll(v, -(len(v) // n)) - moved))
    return bool(err <= _SYMMETRY_RTOL * np.max(np.abs(v)))


def _orbit(z: np.ndarray, n: int) -> np.ndarray:
    """z followed by its rotations by 2 pi j / n, j = 1 .. n-1."""
    return np.concatenate([z] + [z * cmath.exp(2j * math.pi * j / n) for j in range(1, n)])


class SolverError(RuntimeError):
    """Linear-algebra failure inside the capacity solver."""


class ConfigurationError(ValueError):
    """Inconsistent or undersized solver parameters."""


@dataclass(frozen=True)
class _CirclePiece:
    """Smooth closed boundary piece |z - center| = radius, ccw."""

    center: complex
    radius: float

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.center + self.radius * np.exp(2j * math.pi * t)

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        return 1j * np.exp(2j * math.pi * t)

    def euclid_length(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass(frozen=True)
class BoundarySet:
    """Inner boundary of the condenser domain D = (unit disk) \\ E.

    Either the chained geodesic sides of a hyperbolic polygon (one
    corner per vertex) or a single smooth circle piece for disk-shaped
    plates; the outer boundary is always the unit circle, implicit.
    hyp_center is a point strictly inside E used to seed a source; for a
    disk plate it is the hyperbolic center, where one reflected source
    solves the problem exactly.  Polygon plates contain the origin by
    construction (starlike); disk plates need not.

    symmetry is the order n of the rotation group about 0 that maps the
    piece list onto itself, piece k onto piece k + m/n; the solver fits
    one sector of m/n pieces with the orbit-summed kernel.  from_polygon
    derives it from the vertices; it is 1 for disks and generic plates.
    """

    pieces: tuple
    corner_angles: tuple[float, ...]
    hyp_center: complex
    symmetry: int = 1

    def __post_init__(self):
        t = np.linspace(0.0, 1.0, 64)
        top = max(float(np.max(np.abs(p.point(t)))) for p in self.pieces)
        if top >= 1.0 - 1e-6:
            raise GeometryError(
                f"plate boundary reaches |z| = {top:.8f}; must stay below 1 - 1e-6"
            )
        # geodesic sides are fixed by their endpoints, so the corners
        # decide the symmetry; a single circle piece admits only n = 1
        m, n = len(self.pieces), self.symmetry
        if n != 1 and (
            n < 1 or m % n or not _rotates_onto_itself([p.z1 for p in self.pieces], n)
        ):
            raise GeometryError(f"plate does not have {n}-fold rotational symmetry about 0")

    @property
    def is_smooth(self) -> bool:
        return len(self.corner_angles) == 0

    @staticmethod
    def from_polygon(p: HypPolygon) -> "BoundarySet":
        corners = []
        m = p.m
        for k in range(m):
            t_in = complex(p.sides[(k - 1) % m].tangent(1.0))
            t_out = complex(p.sides[k].tangent(0.0))
            turn = cmath.phase(t_out * t_in.conjugate())
            corners.append(math.pi - turn)
        return BoundarySet(
            pieces=tuple(p.sides),
            corner_angles=tuple(corners),
            hyp_center=0.0,
            symmetry=max(n for n in range(1, m + 1) if _rotates_onto_itself(p.vertices, n)),
        )

    @staticmethod
    def from_euclid_disk(center: complex, radius: float) -> "BoundarySet":
        center = complex(center)
        if radius <= 0.0:
            raise GeometryError(f"disk radius must be positive, got {radius}")
        if abs(center) + radius >= 1.0 - 1e-6:
            raise GeometryError("disk plate must stay strictly inside the unit disk")
        ray = center / abs(center) if abs(center) > 0 else 1.0
        hyp_center = hyp_midpoint(center - radius * ray, center + radius * ray)
        return BoundarySet(
            pieces=(_CirclePiece(center, radius),),
            corner_angles=(),
            hyp_center=hyp_center,
        )

    @staticmethod
    def from_hyp_disk(d: HypDisk) -> "BoundarySet":
        y, r_e = hyp_disk_to_euclid(d)
        b = BoundarySet.from_euclid_disk(y, r_e)
        return replace(b, hyp_center=complex(d.center))


@dataclass(frozen=True)
class SolverParams:
    """Discretization and source-placement parameters.

    nodes_per_side sizes the graded bulk collocation grid per polygon
    side (or the floor for a circle plate).  corner_ladder is the number
    of geometric source depths per corner (0 disables corner treatment,
    leaving only the graded grid and the deep ring).  ring_charges caps
    the deep source ring per polygon side (or sets the floor of the
    concentric ring for a circle plate).  inner_charge_offset scales the
    depth of the corner hugging layers as a fraction of the local wedge
    width.  corner_grading_strength is the number of compositions of the
    endpoint-clustering map for the bulk grid (0 = uniform).
    check_grid_factor is how many plate check points there are per
    collocation node of the bulk grid.  There are no unit-circle nodes:
    the reflected sources satisfy that condition exactly.
    """

    nodes_per_side: int = 128
    corner_grading_strength: int = 1
    inner_charge_offset: float = 0.35
    ring_charges: int = 32
    corner_ladder: int = 40
    check_grid_factor: int = 2
    max_refine: int = 3

    def __post_init__(self):
        if self.nodes_per_side < 8 or self.ring_charges < 8:
            raise ConfigurationError("all node/charge counts must be at least 8")
        if self.corner_grading_strength < 0:
            raise ConfigurationError("grading strength must be nonnegative")
        if not 0.0 < self.inner_charge_offset < 1.0:
            raise ConfigurationError("inner_charge_offset must lie in (0, 1)")
        if self.corner_ladder < 0:
            raise ConfigurationError("corner_ladder must be nonnegative")
        if self.check_grid_factor < 2:
            raise ConfigurationError("check_grid_factor must be at least 2")
        if self.max_refine < 0:
            raise ConfigurationError("max_refine must be nonnegative")

    def doubled(self) -> "SolverParams":
        return replace(
            self,
            nodes_per_side=2 * self.nodes_per_side,
            ring_charges=2 * self.ring_charges,
            corner_ladder=min(self.corner_ladder + 8, 64) if self.corner_ladder else 0,
        )


@dataclass(frozen=True)
class Discretization:
    """Node and source layout for one solve.

    With symmetry n > 1 the nodes and check points cover one sector of
    the plate and each source stands for its orbit of n rotations.  With
    a mirror (the unit factor of sigma(z) = mirror * conj(z), set when
    the plate's vertices form one rotation orbit) they cover half of
    that sector, and each source also stands for the orbit of its
    mirror image; a source on the mirror axis is its own image.
    """

    colloc_plate: np.ndarray
    charges_inner: np.ndarray
    check_plate: np.ndarray
    symmetry: int
    mirror: complex | None = None

    @property
    def order(self) -> int:
        """Plate images per source: n rotations, twice that with the mirror."""
        return self.symmetry if self.mirror is None else 2 * self.symmetry

    @property
    def n_collocation(self) -> int:
        return len(self.colloc_plate)

    @property
    def n_charges(self) -> int:
        return len(self.charges_inner)


def _graded_map(t: np.ndarray, strength: int) -> np.ndarray:
    w = np.asarray(t, dtype=float)
    for _ in range(strength):
        w = w - np.sin(2.0 * math.pi * w) / (2.0 * math.pi)
    return w


def _side_params(n: int, strength: int) -> np.ndarray:
    """Endpoint-graded bulk parameters; a tiny linear blend keeps them
    distinct near the corners where the composed map underflows."""
    u = (np.arange(n) + 0.5) / n
    s = _graded_map(u, strength)
    s = np.maximum(s, 1e-8 * u)
    return np.minimum(s, 1.0 - 1e-8 * (1.0 - u))


def _corner_regime(angle: float) -> str:
    s = math.sin(min(angle, 0.5 * math.pi))
    if angle < 0.5 * math.pi and s < _NEEDLE_SIN:
        return "needle"
    if angle < 0.5 * math.pi and s < _SHARP_SIN:
        return "sharp"
    return "mild"


def _radial_profile(pts: np.ndarray):
    """Boundary radius as a function of angle (the plate is starlike)."""
    ang = np.angle(pts)
    order = np.argsort(ang)
    ang, rad = ang[order], np.abs(pts)[order]
    ang = np.concatenate([[ang[-1] - 2 * math.pi], ang, [ang[0] + 2 * math.pi]])
    rad = np.concatenate([[rad[-1]], rad, [rad[0]]])
    return ang, rad


def _polygon_layout(b: BoundarySet, p: SolverParams, f: int):
    """Sector layout: sides and corners 0 .. m/n - 1 for symmetry n.

    Returns (points, t) pairs for the collocation nodes, the sources and
    the check points, where t is the side parameter each point was laid
    out at; ladder rungs start at their corner and get t = 0.
    """
    pieces = b.pieces
    m = len(pieces)
    sector = m // b.symmetry
    lengths = [piece.euclid_length() for piece in pieces]
    regimes = [_corner_regime(angle) for angle in b.corner_angles]
    hugs = [_HUG_MILD if regime == "mild" else _HUG_SHARP for regime in regimes]
    K = p.corner_ladder
    tops = [
        min(0.25 * min(lengths[k - 1], lengths[k]), 0.5 * abs(complex(piece.z1)))
        for k, piece in enumerate(pieces)
    ]
    ladders = []
    for k, piece in enumerate(pieces[:sector]):
        v = complex(piece.z1)
        top = tops[k]
        if K:
            # march along the interior angle bisector; the toward-origin
            # ray can hug one wall of an asymmetric needle wedge
            t_out = complex(piece.tangent(0.0))
            angle = b.corner_angles[k]
            bis = t_out * cmath.exp(0.5j * angle)
            depth_count = K + 16 if regimes[k] == "needle" else K
            depths = top * _LADDER_SIGMA ** np.arange(depth_count)
            # design clearance of a rung is its distance to the wedge
            # walls, not its distance to the vertex
            clearance = depths * math.sin(0.5 * min(angle, math.pi))
            ladders.append((v + bis * depths, clearance, np.zeros(depth_count)))
    s_col = _side_params(p.nodes_per_side, p.corner_grading_strength)
    s_chk = _side_params(f * p.nodes_per_side, p.corner_grading_strength)
    n_ring = min(p.ring_charges, max(8, p.nodes_per_side // 4))
    u_ring = (np.arange(n_ring) + 0.5) / n_ring

    colloc, rings, corner_poles, checks = [], [], list(ladders), []
    for k, piece in enumerate(pieces[:sector]):
        length = lengths[k]
        k1 = (k + 1) % m
        extras = []
        if K:
            for top, kc, at_end in ((tops[k], k, False), (tops[k1], k1, True)):
                c = _corner_cps(b.corner_angles[kc], p.inner_charge_offset, hugs[kc])
                d = (top / length) * _LADDER_SIGMA ** (np.arange(c * K + c) / c)
                d = np.clip(d, 1e-13, 0.495)
                extras.append(1.0 - d if at_end else d)
        s_all = np.unique(np.concatenate([s_col] + extras)) if extras else s_col
        colloc.append((np.asarray(piece.point(s_all), dtype=complex), s_all))
        checks.append((np.asarray(piece.point(s_chk), dtype=complex), s_chk))
        rings.append((_RING_SCALE * np.asarray(piece.point(u_ring), dtype=complex), u_ring))
        if K:
            for top, angle, per_octave, at_end in (
                (tops[k], b.corner_angles[k], hugs[k], False),
                (tops[k1], b.corner_angles[k1], hugs[k1], True),
            ):
                width = math.sin(min(angle, 0.5 * math.pi))
                ell = (top / length) * _LADDER_SIGMA ** (
                    np.arange(per_octave * K) / per_octave
                )
                ell = ell[ell > 1e-12]
                t_h = 1.0 - ell if at_end else ell
                z = np.asarray(piece.point(t_h), dtype=complex)
                tang = np.asarray(piece.tangent(t_h), dtype=complex)
                depth = p.inner_charge_offset * width * ell * length
                corner_poles.append((z + 1j * tang * depth, depth, t_h))
    check_plate = np.concatenate([z for z, _ in checks])
    # drop corner-treatment sources that crossed a (curved) far wall:
    # each must stay inside the starlike plate and keep a clearance to
    # the boundary comparable to its design value; the radial profile is
    # built from the graded check grid so it is corner-accurate.  Both
    # tests see the whole plate (the sector grid and its rotations),
    # since sources near a sector edge face the neighbouring sector
    check_full = _orbit(check_plate, b.symmetry)
    prof_ang, prof_rad = _radial_profile(
        np.concatenate([check_full, [complex(piece.z1) for piece in pieces]])
    )
    kept = []
    for poles, clearance, t in corner_poles:
        clearance = np.broadcast_to(np.asarray(clearance, dtype=float), poles.shape)
        inside = np.abs(poles) <= np.interp(np.angle(poles), prof_ang, prof_rad)
        dist = np.min(np.abs(poles[:, None] - check_full[None, :]), axis=1)
        keep = inside & (dist >= 0.3 * clearance)
        kept.append((poles[keep], t[keep]))
    return tuple(
        (np.concatenate([z for z, _ in parts]), np.concatenate([t for _, t in parts]))
        for parts in (colloc, rings + kept, checks)
    )


def discretize(b: BoundarySet, p: SolverParams) -> Discretization:
    """Collocation nodes, source points, and check grid on the plate.

    Polygon sides get the graded bulk grid (uniform when the grading
    strength is 0) plus geometric corner scales whenever corner_ladder
    is positive; sources are the deep ring, the corner ladders, and the
    corner hugging layers.  Circle plates get uniform nodes with a
    concentric source ring plus one source at the hyperbolic center.
    Nothing is placed on the unit circle, where every reflected basis
    function vanishes.  A plate with symmetry n gets the layout of one
    sector, with one source per orbit; when n is its vertex count it
    gets the half of that layout with side parameter t <= 1/2 and a
    mirror, and each source also stands for its mirror image.  Raises
    ConfigurationError unless the plate (or sector) has at least twice
    as many nodes as sources.  A mirror half is checked as the sector
    layout it stands for: each half node and source counts for itself
    and its mirror image, which give the same equation and column.  The
    half keeps the on-axis ladder whole, so its own rows need not be
    twice its columns.
    """
    f = p.check_grid_factor
    if b.is_smooth:
        piece = b.pieces[0]
        n = max(p.nodes_per_side, 64)
        t = np.arange(n) / n
        colloc_plate = np.asarray(piece.point(t), dtype=complex)
        check_plate = np.asarray(
            piece.point((np.arange(f * n) + 0.5) / (f * n)), dtype=complex
        )
        n_in = max(p.ring_charges, 32)
        ring = piece.center + _RING_SCALE * piece.radius * np.exp(
            2j * math.pi * np.arange(n_in) / n_in
        )
        charges_inner = np.concatenate([[complex(b.hyp_center)], ring])
    else:
        layout = _polygon_layout(b, p, f)
        (colloc_plate, _), (charges_inner, _), (check_plate, _) = layout

    if len(colloc_plate) < 2 * len(charges_inner):
        raise ConfigurationError(
            f"{len(colloc_plate)} collocation nodes cannot overdetermine "
            f"{len(charges_inner)} charges (need at least 2x)"
        )
    mirror = None
    if not b.is_smooth and b.symmetry == len(b.pieces):
        # the vertices form one rotation orbit, so the plate is also
        # symmetric under the reflection through 0 and vertex 0; modulo
        # rotations that maps side 0 onto itself by t -> 1 - t
        v0 = complex(b.pieces[0].z1)
        mirror = (v0 / abs(v0)) ** 2
        colloc_plate, charges_inner, check_plate = (z[t <= 0.5] for z, t in layout)
    return Discretization(
        colloc_plate=colloc_plate,
        charges_inner=charges_inner,
        check_plate=check_plate,
        symmetry=b.symmetry,
        mirror=mirror,
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one capacity solve.

    n_collocation and n_charges count the fitted system.  For a plate
    of symmetry n that is one sector: 1/n of the plate's nodes and one
    source per orbit.  When n is the vertex count (a regular polygon)
    it is half a sector: 1/(2n) of the plate's nodes, and one source
    per orbit of the rotations and the mirror, so a source on a mirror
    axis stands for n plate sources and any other for 2n.  rank is the
    numerical rank gelsy found for that system (at most n_charges).
    """

    capacity: float
    modulus_q: float
    boundary_residual: float
    n_collocation: int
    n_charges: int
    converged: bool
    rank: int
    symmetry: int


def _kernel(z: np.ndarray, d: Discretization) -> np.ndarray:
    """Orbit-summed reflected basis G_n(z, p) at points z (rows) for all
    sources p (cols), plus G_n(z, sigma p) when d.mirror is set.

    The products over the rotations w^j p, w = exp(2 pi i / n), are
    prod_j (z - w^j p) = z^n - p^n and prod_j (1 - conj(w^j p) z) =
    1 - conj(p^n) z^n, so each column costs one log per entry:

        G_n(z, p) = log(|z^n - p^n| / |1 - conj(p^n) z^n|),

    the plain reflected kernel of z^n and p^n (n = 1 is the plain
    kernel of z and p).  Every column vanishes on |z| = 1.  The matrix
    is built in row blocks, which bounds the complex temporaries.
    """
    n = d.symmetry
    sources = [d.charges_inner ** n]
    if d.mirror is not None:
        sources.append((d.mirror * np.conj(d.charges_inner)) ** n)
    A = np.empty((len(z), d.n_charges))
    for start in range(0, len(z), _KERNEL_ROWS):
        zn = z[start : start + _KERNEL_ROWS, None] ** n
        ratio = 1.0
        for pn in sources:
            ratio = ratio * (np.abs(zn - pn) / np.abs(1.0 - np.conj(pn) * zn))
        np.log(ratio, out=A[start : start + _KERNEL_ROWS])
    return A


def _solve_once(b: BoundarySet, p: SolverParams, tol: float) -> SolveReport:
    d = discretize(b, p)
    A = _kernel(d.colloc_plate, d)
    if not np.all(np.isfinite(A)):
        raise SolverError("non-finite entries in the collocation matrix")
    scale = np.max(np.abs(A), axis=0)
    scale[scale == 0.0] = 1.0
    A /= scale
    coef_scaled, _, rank, _ = scipy.linalg.lstsq(
        A, np.ones(len(d.colloc_plate)), cond=_RANK_RTOL, lapack_driver="gelsy"
    )
    if rank == 0:
        raise SolverError("collocation matrix is numerically rank zero")
    coef = coef_scaled / scale

    capacity = -2.0 * math.pi * d.order * float(np.sum(coef))
    if not math.isfinite(capacity) or capacity <= 0.0:
        raise SolverError(f"solver produced nonpositive capacity {capacity}")

    residual = float(np.max(np.abs(_kernel(d.check_plate, d) @ coef - 1.0)))
    return SolveReport(
        capacity=capacity,
        modulus_q=math.exp(-2.0 * math.pi / capacity),
        boundary_residual=residual,
        n_collocation=d.n_collocation,
        n_charges=d.n_charges,
        converged=residual < tol,
        rank=int(rank),
        symmetry=d.symmetry,
    )


# default residual tolerances; boundary_residual r empirically bounds the
# capacity error like r^2 (the capacity is an energy), so 2e-3 keeps
# polygon capacities well inside 5e-4 relative
DEFAULT_TOL_POLYGON = 2e-3
DEFAULT_TOL_SMOOTH = 1e-6


def solve_capacity(
    b: BoundarySet, p: SolverParams | None = None, tol: float = DEFAULT_TOL_POLYGON
) -> SolveReport:
    """Capacity of (unit disk, E) with automatic refinement.

    Solves at the given parameters and, while the boundary residual
    exceeds tol, retries with doubled node and charge counts up to
    max_refine times; the last report carries converged=False if the
    ladder is exhausted.
    """
    if tol <= 0.0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    p = p or SolverParams()
    report = _solve_once(b, p, tol)
    for _ in range(p.max_refine):
        if report.converged:
            break
        p = p.doubled()
        report = _solve_once(b, p, tol)
    return report


def cap_polygon(
    poly: HypPolygon, tol: float = DEFAULT_TOL_POLYGON, params: SolverParams | None = None
) -> SolveReport:
    """Capacity of (unit disk, hyperbolic polygon)."""
    return solve_capacity(BoundarySet.from_polygon(poly), params, tol)


def cap_disk(
    d: HypDisk, tol: float = DEFAULT_TOL_SMOOTH, params: SolverParams | None = None
) -> SolveReport:
    """Capacity of (unit disk, closed hyperbolic disk), numerically."""
    return solve_capacity(BoundarySet.from_hyp_disk(d), params, tol)


def cap_euclid_disk(
    center: complex,
    radius: float,
    tol: float = DEFAULT_TOL_SMOOTH,
    params: SolverParams | None = None,
) -> SolveReport:
    """Capacity of (unit disk, Euclidean disk plate), numerically."""
    return solve_capacity(BoundarySet.from_euclid_disk(center, radius), params, tol)
