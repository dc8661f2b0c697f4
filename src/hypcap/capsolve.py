"""Numerical capacity cap(D, E) by a graded-mesh Nystrom method.

The condenser potential (1 on the plate boundary Gamma, 0 on the unit
circle) is the single-layer potential of a density sigma on Gamma with
the Green's function of the unit disk as kernel.  Symm's first-kind
equation

    int_Gamma G(z, zeta) sigma(zeta) ds(zeta) = 1   (z on Gamma),
    G(z, zeta) = log|z - zeta| - log|1 - conj(zeta) z|,

determines sigma.  G vanishes on |z| = 1, so the outer condition is
exact and nothing is placed there.  The capacity is the flux,
cap = -2 pi int sigma ds; the annulus E = {|z| <= a} with potential
log|z| / log a fixes the sign.

Discretization (Kress, Numer. Math. 58, 1990):

* The boundary is parametrised by u in [0, 2 pi) with 2N equispaced
  grid nodes u_j = pi j / N.  Each polygon side gets its own stretch of u,
  n_k of the 2N nodes on side k, with Kress's sigmoidal grading of order
  p = 6, which clusters nodes at the corners like a p-th power; a circle
  plate is one smooth piece at uniform speed.  A piece gives the solver
  z(t) and z'(t) = dz/dt, t in [0, 1]; with s running over [0, 2 pi) on
  piece k at ds/du = 2N / n_k and t = tau(s), dz/du = z'(t) (2N / n_k)
  dtau/ds.  The unknown is psi = sigma |dz/du|.
* The log|z - zeta| part is split as 1/2 log(4 sin^2((u - v)/2)) plus
  a smooth remainder.  The singular part gets Kress's trigonometric
  product weights
      R_j(u) = -(2 pi / N) sum_{k<N} cos(k (u - u_j)) / k
               - (pi / N^2) cos(N (u - u_j)),
  the rest the trapezoid rule; on the diagonal the remainder tends to
  log|dz/du| - log(1 - |z|^2).
* Grading makes psi vanish at a corner to high order, so every node
  whose side parameter lies within 1e-9 of a side end is dropped
  (psi = 0 there).  Kept, such nodes would round onto the vertex and
  onto each other, and the log of their zero distance is not finite.
* Collocating at the kept nodes gives a square system, solved by
  least squares (gelsy at its default cutoff: every level has full rank).
  The quadrature's capacity, -2 pi h sum_j psi_j, is then corrected by
  its own estimated change Delta at twice the nodes (see below).

A plate E with n-fold rotational symmetry about 0 is solved as the
plain plate W = {z^n : z in E}.  With omega = exp(2 pi i / n), the
products prod_j (z - omega^j zeta) = z^n - zeta^n and
prod_j (1 - conj(omega^j zeta) z) = 1 - conj(zeta^n) z^n give the one
identity the fold rests on,

    G_n(z, zeta) = sum_{j<n} G(z, omega^j zeta) = G(z^n, zeta^n),

so the n-periodic density of E is that of W, and cap(D, E) =
n cap(D, W).  discretize makes the change of variables once: it
parametrises one sector by u in [0, 2 pi) on its own, which w = z^n
maps once round the boundary of W, and returns the orbit points z^n
with d(z^n)/du = n z^(n-1) dz/du.  Past it the solver is the method
above on W; n is left only in the capacity's weight.  When the line
through 0 and a vertex v_0 (first in the side list) is a mirror axis of
the plate, sigma(z) = (v_0/|v_0|)^2 conj(z) maps vertex k onto vertex
-k; on W it is sigma(w) = (v_0/|v_0|)^2n conj(w), which maps the grid
position u onto -u.  The graded nodes are symmetric too, so the solver
fits only the rows and columns with u <= pi.  discretize lists once
which images stand for a node: itself at u, and with the mirror also
sigma(w) at -u; each column sums over them.  A node at u = pi (a side's
midpoint) is its own image: its column is doubled and its unknown
halved.  The quadrature's capacity is -2 pi k (pi / N) sum_j psi_j, with
k = n times the images listed per node: n, or 2n with the mirror.

boundary_residual is the largest |potential - 1| at the midpoints
between the grid nodes (those not dropped), with the potential
evaluated by the same product quadrature, the weights taken at
half-step offsets.  The rungs of the refinement ladder multiply the
nodes per side by about sqrt 2, so that two steps double them (see
_ladder); the ladder starts one such step below
SolverParams.nodes_per_side per side (90 below 128), for every plate.
Each side of the fitted sector has its own rung.  After a refused
level, a corner whose |Delta_v| is at least its share of the capacity
tolerance lifts its own two sides, so a needle corner refines its sides
and not the mild ones (see solve_capacity).
The Kress weights, the offset table, the FFT check and Delta's check
points all live on the one uniform u grid, so uneven counts change only
each side's speed.

Delta is a dual-weighted-residual estimate (Becker and Rannacher, Acta
Numerica 10, 2001) of how far the quadrature's capacity Q moves when the
nodes per side are doubled.  Q is a linear functional of psi whose
weights are the right-hand side of the symmetric system, so psi is its
own adjoint solution, and the check points are exactly the new nodes of
the doubled grid, at trapezoid weight h / 2.  So, to first order,

    Q(2N) - Q(N) = Delta = -pi k h sum_mid psi~(mid) (1 - u(mid)),

with u the potential at the check points, psi~ the trigonometric
interpolant of the node density there and k the images per node times
the symmetry.  The reported capacity is Q + Delta, the adjoint-corrected
functional (Giles and Suli, Acta Numerica 11, 2002).  It costs nothing
more, and wherever Delta tracks the change it lies one to two digits
closer to the finer levels than Q (on a disk, to rounding).

Delta is split by corner: each check point's term goes to the nearer
end vertex of its side, Delta = sum_v Delta_v over the sector corners
(with a mirror, a kept point's term stands for its image too, and half
of it goes to the image corner).  capacity_error is sum_v |Delta_v|.
It is never below |Delta|, and it is |Delta| when the sector has one
corner (a folded regular plate) or is a circle, which skip the split.
The sum is needed because uneven counts let the corners' terms cancel:
triangle_5 T at 182, 128 and 182 per side reads |Delta| 2.6e-7 of its
capacity but lies 1.4e-6 off its level at 1024 per side, and the sum
reads 4.6e-6.  The corrected capacity's own error is of higher order,
so capacity_error bounds it too.

Every level converges by one rule: its residual is below tol, its
capacity is positive and finite (too coarse a level near the unit
circle can give a negative one), and its capacity_error is at most 1e-6
of the capacity.  solve_capacity returns the first level that
converges, so a converged capacity carries its own estimate of six
digits.  The residual stays in the rule because Delta can cross zero
between two levels, where it reads far less than the change.

Evaluation.  A level is a tuple of nodes per sector side (see
solve_capacity).  What a level needs of its grid and not of the plate,
the graded side parameter and its speed at every position, the kept
node and check positions with each check point's corner, and the offset
table with its spectrum, depends only on that tuple, whether the plate
is a circle and whether it has a mirror.  _grid caches it, read-only,
per such key: every regular plate of one level shares one grid, and
discretize only evaluates the plate's sides on it and keeps the grid in
the Discretization it returns.  The matrix and the potential at the
midpoints are the two O(n^2) steps of a level.  Both sum over the
images that discretize listed, and work in row blocks of about 2^16
entries, so that their temporaries stay in cache.  G is evaluated in
real arithmetic (see _green).  The matrix is symmetric, because G is,
the Kress weights and the log-sine term are even in the offset, and the
mirror sigma is an isometry of the disk with sigma^2 = id, so that
G(a, sigma b) = G(sigma a, b).  Only the blocks on and right of the
diagonal are evaluated.  At the midpoints, the terms that depend only
on the offset form one circular convolution of a table over the offsets
with the density spread on the grid, done by FFT; only the G sums are
evaluated block by block.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .hypgeom import GeometryError, HypDisk, HypPolygon, hyp_disk_to_euclid
from .hypgeom import _check_in_disk, _is_int, _is_real

__all__ = [
    "BoundarySet",
    "ConfigurationError",
    "Discretization",
    "SolveReport",
    "SolverError",
    "SolverParams",
    "cap_disk",
    "cap_polygon",
    "discretize",
    "solve_capacity",
]

# order of Kress's sigmoidal grading on polygon sides
_GRADING_ORDER = 6
# nodes this close to a side end (in the side parameter) are dropped
_VERTEX_GAP = 1e-9
# relative tolerance of the rotational-symmetry test on polygon vertices
_SYMMETRY_RTOL = 1e-12
# entries per block of the kernel build and the residual check: their
# float temporaries (512 KB each) stay in a core's L2 cache
_BLOCK_ENTRIES = 2**16


def _maps_onto(v, moved) -> bool:
    """Whether moved[k] = v[k] for every k, to 1e-12 of the largest |v[k]|."""
    tol = _SYMMETRY_RTOL * max(map(abs, v))
    return all(abs(a - b) <= tol for a, b in zip(v, moved))


def _rotates_onto_itself(v, n: int) -> bool:
    """Whether n divides m and rotation by 2 pi / n maps vertex k onto k + m/n."""
    q, w = len(v) // n, cmath.exp(2j * math.pi / n)
    return not len(v) % n and _maps_onto(v[q:] + v[:q], [w * z for z in v])


def _mirrors_onto_itself(v, mirror: complex) -> bool:
    """Whether |mirror| = 1 and z -> mirror * conj(z) maps vertex k onto -k."""
    moved = [mirror * z.conjugate() for z in v]
    return abs(abs(mirror) - 1.0) <= _SYMMETRY_RTOL and _maps_onto(v[:1] + v[:0:-1], moved)


class SolverError(RuntimeError):
    """Linear-algebra failure inside the capacity solver."""


class ConfigurationError(ValueError):
    """Inconsistent or undersized solver parameters."""


@dataclass(frozen=True)
class _CirclePiece:
    """Smooth closed boundary piece |z - center| = radius, ccw, at the
    constant speed |z'(t)| = 2 pi radius."""

    center: complex
    radius: float

    def point(self, t):
        return self.center + self.radius * np.exp(2j * math.pi * np.asarray(t, dtype=float))

    def derivative(self, t):
        return 2j * math.pi * self.radius * np.exp(2j * math.pi * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class BoundarySet:
    """Inner boundary of the condenser domain D = (unit disk) \\ E.

    Either the chained geodesic sides of a hyperbolic polygon or a
    single smooth circle piece for disk-shaped plates; the outer
    boundary is always the unit circle, implicit.

    symmetry is the order n of the rotation group about 0 that maps the
    piece list onto itself, piece k onto piece k + m/n, an int >= 1
    (Python or numpy, not a bool; stored as a Python int); the solver
    fits one sector of m/n pieces, mapped by z -> z^n (see discretize).
    A mirror z -> mirror * conj(z) that maps vertex k onto vertex -k
    halves the sector.
    from_polygon derives both, vertex 0 first on a mirror axis; disks
    and generic plates take neither.
    """

    pieces: tuple
    symmetry: int = 1
    mirror: complex | None = None

    def __post_init__(self):
        if not self.pieces:
            raise GeometryError("plate is empty: it has no boundary pieces")
        # hyperbolic distance from 0 is convex along a geodesic, so a
        # side's largest |z| is at one of its ends
        top = max(
            abs(p.center) + p.radius if self.is_smooth else max(abs(p.z1), abs(p.z2))
            for p in self.pieces
        )
        if not top < 1.0 - 1e-6:
            raise GeometryError(
                f"plate boundary reaches |z| = {top:.8f}; must stay below 1 - 1e-6"
            )
        # geodesic sides are fixed by their endpoints, so the corners
        # decide the symmetries; a circle piece admits only n = 1, no mirror
        m, n = len(self.pieces), self.symmetry
        if not _is_int(n) or n < 1:
            raise GeometryError(f"symmetry must be an int >= 1, got {n!r}")
        # stored as a Python int, so that a numpy order maps z -> z^n alike
        object.__setattr__(self, "symmetry", int(n))
        if n != 1 and (m % n or not _rotates_onto_itself([p.z1 for p in self.pieces], n)):
            raise GeometryError(f"plate does not have {n}-fold rotational symmetry about 0")
        if self.mirror is not None and (
            self.is_smooth or not _mirrors_onto_itself([p.z1 for p in self.pieces], self.mirror)
        ):
            raise GeometryError(f"plate is not symmetric under z -> ({self.mirror}) conj(z)")

    @property
    def is_smooth(self) -> bool:
        return isinstance(self.pieces[0], _CirclePiece)

    @staticmethod
    def from_polygon(p: HypPolygon) -> "BoundarySet":
        axes = [(j, (v / abs(v)) ** 2) for j, v in enumerate(p.vertices)]
        hits = ((j, u) for j, u in axes if _mirrors_onto_itself(p.vertices[j:] + p.vertices[:j], u))
        j, mirror = next(hits, (0, None))
        return BoundarySet(
            pieces=p.sides[j:] + p.sides[:j],
            symmetry=next(n for n in range(p.m, 0, -1) if _rotates_onto_itself(p.vertices, n)),
            mirror=mirror,
        )

    @staticmethod
    def from_euclid_disk(center: complex, radius: float) -> "BoundarySet":
        if not _is_real(radius) or not 0.0 < radius < math.inf:
            raise GeometryError(f"disk radius must be positive and finite, got {radius!r}")
        return BoundarySet(pieces=(_CirclePiece(_check_in_disk(center, "center"), radius),))


def _nodes_per_side(per_side: int) -> int:
    """per_side as a Python int, if it is an even int of at least 8
    (every side needs a node on its midpoint), else ConfigurationError."""
    if not _is_int(per_side) or per_side < 8 or per_side % 2:
        raise ConfigurationError(f"nodes_per_side must be an even int >= 8, got {per_side!r}")
    return int(per_side)


@dataclass(frozen=True)
class SolverParams:
    """Resolution of the Nystrom discretization.

    nodes_per_side is the number of grid nodes per polygon side (or on
    a circle plate) at the start rung, for every plate; it must be an
    even int, so that every side has a node on its midpoint.  _ladder
    turns these into the rungs each sector side climbs: the first one
    sqrt 2 step below the start, then the start, then max_refine steps
    of about sqrt 2 above it (the default 6 ends at 8 times the start).
    Each level after the first lifts at least one side a rung, so a
    plate whose sector has one side runs at most max_refine + 2 levels;
    with q sides, at most q (max_refine + 1) + 1.
    """

    nodes_per_side: int = 128
    max_refine: int = 6

    def __post_init__(self):
        _nodes_per_side(self.nodes_per_side)
        if not _is_int(self.max_refine) or self.max_refine < 0:
            raise ConfigurationError(f"max_refine must be an int >= 0, got {self.max_refine!r}")

    def doubled(self) -> "SolverParams":
        """These parameters at twice the nodes per side.  Outside the
        tests its one caller is perfbench/make_reference.py, which
        builds its reference levels with it."""
        return replace(self, nodes_per_side=2 * self.nodes_per_side)


def _kress_grading(s: np.ndarray, p: int):
    """Kress's sigmoidal map of order p at s in [0, 2 pi], as the side
    parameter tau = w(s) / 2 pi, the distance of tau to the nearer side
    end (computed without cancellation), and d tau / d s."""
    y = (math.pi - s) / math.pi
    c = 1.0 / p - 0.5
    v0, v1 = c * y**3 - y / p + 0.5, -c * y**3 + y / p + 0.5  # v(s), v(2 pi - s)
    dv = (1.0 / p - 3.0 * c * y**2) / math.pi  # v'(s) = v'(2 pi - s)
    a, b = v0**p, v1**p
    total = a + b
    dtau = p * dv * (v0 ** (p - 1) * b + a * v1 ** (p - 1)) / total**2
    return a / total, np.minimum(a, b) / total, dtau


def _kress_weights(n_grid: int) -> np.ndarray:
    """Kress's product weights R_j(u) for log(4 sin^2((u - u_j)/2)) on
    n_grid = 2N nodes, at the half-step offsets u - u_j = pi k / n_grid,
    k = 0 .. 2 n_grid - 1 (even k reach nodes, odd k midpoints)."""
    half = n_grid // 2
    k = np.arange(1, half + 1)
    coef = -2.0 * math.pi / (half * k)
    coef[-1] = -math.pi / half**2
    # irfft of length 2 n_grid turns these into sum_k coef_k cos(k x)
    spectrum = np.zeros(n_grid + 1)
    spectrum[1 : half + 1] = n_grid * coef
    return np.fft.irfft(spectrum, n=2 * n_grid)


@dataclass(frozen=True)
class _Grid:
    """What a level needs of its grid and not of the plate (see _grid).

    The sector is parametrised by u in [0, 2 pi) with n_grid equispaced
    grid nodes, shares[k] of them on side k.  Positions are counted in
    half steps of that grid: nodes sit at even positions, check points at
    the odd ones between them, so a point at position k has u =
    pi k / n_grid.  tau[k] and speed[k] are t = tau(s) and
    (n_grid / shares[k]) dtau/ds at the 2 shares[k] half-step positions
    of side k; pos and check_pos are the positions of the kept nodes and
    check points on the sector, which are also their indices among the
    sector's points, and corner is the sector corner nearer each check
    point, the start k of its side k in the side's first half, else its
    end k + 1 (mod the sides); table is the offset table and spectrum the
    rfft of one period of it, the check's convolution kernel.
    h = 2 pi / n_grid is the trapezoid weight and period = 2 n_grid the
    number of half-step positions."""

    shares: tuple
    n_grid: int
    h: float
    period: int
    tau: tuple
    speed: tuple
    pos: np.ndarray
    check_pos: np.ndarray
    corner: np.ndarray
    table: np.ndarray
    spectrum: np.ndarray


@functools.lru_cache(maxsize=None)
def _grid(shares: tuple, smooth: bool, mirror: bool) -> _Grid:
    """The grid of a sector whose side k has shares[k] nodes: Kress
    grading of order 6 (uniform speed if smooth), nodes and check points
    within 1e-9 of a side end dropped (never on a smooth plate), and only
    u <= pi kept with a mirror.

    The offset table holds the kernel's terms that depend only on the
    half-step offset k between a point and a node image,
    1/2 R(pi k / n_grid) - h log|2 sin(pi k / 2 n_grid)| (the log-sine
    term left out at k = 0, where the diagonal limit replaces it), at
    index k + 2 n_grid for -2 n_grid <= k <= 2 n_grid, so that no index
    needs a modulus; it is even in k.

    This is the one cache in capsolve; its arrays are read-only, so
    every level on the same grid shares them."""
    q, n_grid = len(shares), sum(shares)
    period = 2 * n_grid
    tau, speed, keep, corner = [], [], [], []
    for k, share in enumerate(shares):
        s = math.pi * np.arange(2 * share) / share
        if smooth:
            t, dtau = s / (2.0 * math.pi), np.full(s.shape, 0.5 / math.pi)
            kept = np.ones(s.shape, dtype=bool)
        else:
            t, gap, dtau = _kress_grading(s, _GRADING_ORDER)
            kept = gap >= _VERTEX_GAP
        tau.append(t)
        speed.append(n_grid / share * dtau)
        keep.append(kept)
        corner.append(np.where(np.arange(2 * share) < share, k, (k + 1) % q))
    pos = np.arange(period)
    keep = np.concatenate(keep)
    if mirror:
        keep &= pos <= n_grid
    check = keep & (pos % 2 == 1)
    h = 2.0 * math.pi / n_grid
    offset = 0.5 * _kress_weights(n_grid)
    offset[1:] -= h * np.log(2.0 * np.sin(math.pi / period * np.arange(1, period)))
    arrays = dict(
        pos=pos[keep & (pos % 2 == 0)],
        check_pos=pos[check],
        corner=np.concatenate(corner)[check],
        table=np.concatenate([offset, offset, offset[:1]]),
        spectrum=np.fft.rfft(offset),
    )
    for array in [*tau, *speed, *arrays.values()]:
        array.setflags(write=False)
    return _Grid(shares, n_grid, h, period, tuple(tau), tuple(speed), **arrays)


@dataclass(frozen=True)
class Discretization:
    """Nodes and check points of one level, as orbit points w = z^n of
    the sector's grid (w = z for symmetry 1; see discretize).

    grid is the level's cached _Grid (the sector is the whole boundary
    for symmetry 1), with the node positions grid.pos and the check
    positions grid.check_pos.  images lists the (points, positions) each
    kept node stands for: first (nodes, grid.pos), the nodes being the
    fitted unknowns and rows (with a mirror only those with u <= pi),
    and with a mirror also their images (mirror^n conj(nodes), -grid.pos).
    diagonal is the limit of the smooth part of the kernel at each node,
    log|dw/du| - log(1 - |w|^2), and check holds the check points.
    """

    grid: _Grid
    images: tuple
    diagonal: np.ndarray
    check: np.ndarray

    @property
    def n_collocation(self) -> int:
        return len(self.grid.pos)


def _shares(per_side, q: int, mirror: bool) -> tuple:
    """per_side as a tuple of q node counts, one per sector side: an int
    (_nodes_per_side) on every side, or a tuple of q of them that a
    mirror maps onto itself (side k onto side q - 1 - k); else
    ConfigurationError."""
    if not isinstance(per_side, tuple):
        return (_nodes_per_side(per_side),) * q
    shares = tuple(map(_nodes_per_side, per_side))
    if len(shares) != q or (mirror and shares != shares[::-1]):
        raise ConfigurationError(f"need {q} counts of nodes per side, mirrored, got {per_side!r}")
    return shares


def discretize(b: BoundarySet, per_side) -> Discretization:
    """Graded nodes and midpoint check points of one sector, at the
    level of per_side nodes per side, mapped to the orbit plate w = z^n,
    n = b.symmetry, with dw/du = n z^(n-1) dz/du.  This is the one place
    that knows the rotation: past it the solver sees the plain plate W.

    per_side is one count for every side of the sector, or a tuple of
    one count per side (see _shares); each is an even int of at least 8,
    else ConfigurationError.  Side k of the sector's q = m / n sides
    gets its n_k grid nodes on its own stretch of the one uniform u grid
    of n_grid = sum n_k nodes, with Kress grading of order 6: t = tau(s)
    with s running over [0, 2 pi) on the side at ds/du = n_grid / n_k, so
    dz/du = z'(t) (n_grid / n_k) dtau/ds (n_k = n_grid / q on every side
    of a uniform level).  A circle plate gets its nodes at uniform speed,
    tau(s) = s / 2 pi.  Polygon nodes and check points within 1e-9 of a
    side end in the side parameter are dropped.  With a mirror only the
    half of the sector with u <= pi is kept.  All of that depends on the
    plate only through the counts, smooth and mirror, so it comes from
    the cached _grid, which the Discretization holds; here the sides are
    evaluated on it.  The mirror z -> mirror conj(z) is
    w -> mirror^n conj(w) on W.
    """
    n = b.symmetry
    sector = b.pieces[: len(b.pieces) // n]
    mirror = b.mirror is not None
    g = _grid(_shares(per_side, len(sector), mirror), b.is_smooth, mirror)
    z = np.concatenate([piece.point(t) for piece, t in zip(sector, g.tau)])
    dz = np.concatenate([piece.derivative(t) * v for piece, t, v in zip(sector, g.tau, g.speed)])
    # z**0 is exactly 1, so for n = 1 these are z and dz/du themselves
    w, dw = z[g.pos] ** n, n * z[g.pos] ** (n - 1) * dz[g.pos]
    images = ((w, g.pos),) if not mirror else ((w, g.pos), (b.mirror**n * np.conj(w), -g.pos))
    return Discretization(
        grid=g,
        images=images,
        diagonal=np.log(np.abs(dw)) - np.log1p(-np.abs(w) ** 2),
        check=z[g.check_pos] ** n,
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one capacity solve.

    n_collocation counts the unknowns (and rows) of the fitted square
    system: the kept nodes of one sector, of half of it with a mirror.
    boundary_residual is max|u - 1| at the midpoints between those
    nodes.  capacity is the level's quadrature plus Delta, its estimated
    change at twice the nodes per side (see the module docstring).
    corner_error holds |Delta_v| for each sector corner v, the start of
    side v, with its share of Delta from the check points nearer it; a
    sector of one corner, or a circle, has the one entry |Delta|.
    capacity_error is their sum: never below |Delta|, and |Delta| with
    one corner.  converged says that the residual is below the
    tolerance, the capacity positive and finite, and capacity_error at
    most 1e-6 of the capacity.
    """

    capacity: float
    boundary_residual: float
    capacity_error: float
    n_collocation: int
    converged: bool
    symmetry: int
    corner_error: tuple


def _green(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Green's function G(a, b) of the unit disk at points a (rows) for
    sources b (cols): the solver's points are orbit points (see
    discretize), so this is also the orbit sum G_n.  With the identity
    |1 - conj(b) a|^2 = |a - b|^2 + (1 - |a|^2)(1 - |b|^2),

        G(a, b) = -1/2 log1p((1 - |a|^2)(1 - |b|^2) / |a - b|^2),

    in real arithmetic and without the cancellation in 1 - conj(b) a
    near the unit circle.  It is symmetric in a and b, vanishes on
    |a| = 1, and is -inf (after a divide-by-zero) where a = b.
    """
    # contiguous real and imaginary parts: the outer loops over them vectorize
    ar, ai, br, bi = (np.ascontiguousarray(part) for x in (a, b) for part in (x.real, x.imag))
    dist = np.subtract.outer(ar, br)
    np.square(dist, out=dist)
    gap = np.subtract.outer(ai, bi)
    np.square(gap, out=gap)
    dist += gap
    ratio = np.multiply.outer(1.0 - (ar * ar + ai * ai), 1.0 - (br * br + bi * bi))
    ratio /= dist
    np.log1p(ratio, out=ratio)
    ratio *= -0.5
    return ratio


def _block_rows(n_cols: int) -> int:
    """Rows per block of an O(n^2) evaluation over n_cols columns, so
    that each temporary holds about _BLOCK_ENTRIES entries."""
    return max(1, _BLOCK_ENTRIES // n_cols)


def _kernel(d: Discretization) -> np.ndarray:
    """Nystrom matrix: the potential at each node (rows) of unit density
    at each node (cols), on the orbit points of d.

    Entry (i, j) sums over the node's images in d.images (itself, and
    with a mirror its mirror image at position -pos_j):

        h * (G(w_i, zeta) - 1/2 log(4 sin^2((u_i - v)/2))) + 1/2 R(u_i - v),

    with trapezoid weight h = 2 pi / n_grid and the Kress weights R.
    Where a row is the image itself, the bracket takes its limit, the
    node's d.diagonal.

    The matrix is symmetric: G(w, zeta) = G(zeta, w); the Kress weights
    and the log-sine term are even in the offset u_i - v; and the mirror
    sigma is an isometry of the disk with sigma^2 = id, so
    G(w_i, sigma zeta_j) = G(sigma w_i, zeta_j) = G(zeta_j, sigma w_i),
    at offset pos_i + pos_j either way.  So
    only the row blocks from the diagonal rightwards are evaluated, and
    their transposes copied below.  Each block holds about
    _BLOCK_ENTRIES entries, so that its temporaries stay in cache.
    """
    nodes, pos = d.images[0]
    size, g = d.n_collocation, d.grid
    A = np.zeros((size, size))
    step = _block_rows(size)
    for start in range(0, size, step):
        stop = min(start + step, size)
        rows = slice(start, stop)
        own = np.arange(stop - start)
        for zeta, at in d.images:
            with np.errstate(divide="ignore"):
                part = _green(nodes[rows], zeta[start:])
            part *= g.h
            part += g.table[np.subtract.outer(pos[rows] + g.period, at[start:])]
            # the node's own image: the singular diagonal takes its limit
            hit = (pos[rows] - at[rows]) % g.period == 0
            part[own[hit], own[hit]] = g.h * d.diagonal[rows][hit] + g.table[g.period]
            A[rows, start:] += part
        # the diagonal block is symmetric to rounding: averaging it with
        # its transpose makes it exactly so; the blocks below it are the
        # transposes of the blocks to its right
        square = A[rows, rows]
        square += square.T
        square *= 0.5
        A[stop:, rows] = A[rows, stop:].T
    return A


def _check_potential(d: Discretization, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Potential of the density psi at the check points (the midpoints),
    and the trigonometric interpolant of psi there.

    The terms of _kernel's entries that depend only on the half-step
    offset are a circular convolution of the offset table with psi
    spread on the grid, each of d.images at its own positions; the
    table's rfft is d.grid.spectrum, so one rfft of the spread density
    and one irfft give them at every position.  A check point never
    meets a node image (they sit at odd and even positions), so only
    h * sum over d.images of G(check, zeta) psi is left, which is
    summed block by block without building a check matrix.  The spread
    density's spectrum, cut at the node grid's Nyquist frequency, gives
    the interpolant by one more irfft.
    """
    spread = np.zeros(d.grid.period)
    for _, at in d.images:
        spread += np.bincount(at % d.grid.period, weights=psi, minlength=d.grid.period)
    spectrum = np.fft.rfft(spread)
    u = np.fft.irfft(d.grid.spectrum * spectrum, n=d.grid.period)[d.grid.check_pos]
    # spread's spectrum repeats the node grid's: one copy, doubled for the
    # twice-as-fine samples, interpolates (the node grid's Nyquist term
    # vanishes at the midpoints)
    density = np.fft.irfft(2.0 * spectrum[: d.grid.n_grid // 2], n=d.grid.period)[d.grid.check_pos]
    sources = np.concatenate([zeta for zeta, _ in d.images])
    weights = np.tile(d.grid.h * psi, len(d.images))
    step = _block_rows(len(weights))
    for start in range(0, len(d.check), step):
        rows = slice(start, start + step)
        u[rows] += _green(d.check[rows], sources) @ weights
    return u, density


def _solve_once(b: BoundarySet, per_side, tol: float) -> SolveReport:
    """One level: b solved at per_side nodes per side, one count or a
    tuple of one per sector side (see discretize).  Its capacity is the
    quadrature plus Delta, the quadrature's change at twice the nodes
    estimated from the check, and its capacity error is the sum of
    Delta's corner shares |Delta_v| (see the module docstring).  It has
    converged when its residual is below tol, its capacity is positive
    and finite, and its capacity error is at most 1e-6 of the capacity:
    the one rule by which solve_capacity accepts a level."""
    d = discretize(b, per_side)
    A = _kernel(d)
    # the one finiteness scan of A: lstsq's own would raise a bare ValueError
    if not np.all(np.isfinite(A)):
        raise SolverError("non-finite entries in the Nystrom matrix")
    # A is exactly symmetric: A.T is A in Fortran order, copied untransposed
    psi = scipy.linalg.lstsq(
        A.T, np.ones(d.n_collocation), check_finite=False, lapack_driver="gelsy"
    )[0]
    del A

    g = d.grid
    weight = -2.0 * math.pi * (b.symmetry * len(d.images)) * g.h  # of each unknown
    u, density = _check_potential(d, psi)
    residual = float(np.max(np.abs(u - 1.0)))
    miss = 1.0 - u
    # the doubled grid's new nodes are the check points, at weight h / 2
    delta = 0.5 * weight * float(density @ miss)
    corners = (delta,)
    if len(g.shares) > 1:
        # Delta split by the corner nearer each check point; with a mirror
        # a kept point stands for its image too, whose corner is the image
        # -k of its own corner k
        corners = np.bincount(g.corner, weights=density * miss, minlength=len(g.shares))
        if len(d.images) > 1:
            corners = 0.5 * (corners + corners[-np.arange(len(g.shares))])
        corners = 0.5 * weight * corners
    corner_error = tuple(abs(float(part)) for part in corners)
    # the quadrature's capacity, corrected by its own estimated change
    capacity, error = weight * float(np.sum(psi)) + delta, sum(corner_error)
    # a capacity <= 0 (or not finite) marks an under-resolved level
    converged = residual < tol and 0.0 < capacity < math.inf and error <= _CAPACITY_RTOL * capacity
    return SolveReport(
        capacity=capacity,
        boundary_residual=residual,
        capacity_error=error,
        n_collocation=d.n_collocation,
        converged=converged,
        symmetry=b.symmetry,
        corner_error=corner_error,
    )


def _ladder(p: SolverParams) -> list[int]:
    """The nodes per side of the rungs each sector side may climb in
    solve_capacity: p.max_refine + 2 rungs from one sqrt 2 step below the
    start, those below 8 per side dropped.  With n0 = p.nodes_per_side,
    rung k has 2 round(n0 2^((k-1)/2) / 2) nodes per side: even, so that
    every side keeps a node on its midpoint, and at every odd k exactly
    n0 2^((k-1)/2) (90, 128, 182, 256, 362, ...).  Each step costs about
    2x in the kernel and 2.8x in the least squares, against 4x and 8x for
    a doubling, so a plate that converges between two doublings stops
    there."""
    rungs = (2 * round(p.nodes_per_side * 2 ** ((k - 1) / 2) / 2) for k in range(p.max_refine + 2))
    return [per_side for per_side in rungs if per_side >= 8]


# default residual tolerances, which a level must meet to converge.  On
# its own the residual bounds the capacity error only loosely:
# seq_area_c3_m3 meets 2e-3 at 256 per side while its quadrature is
# 1.1e-4 of its capacity off (7.9e-6 corrected).  It stays in the rule
# because the capacity error estimate can cross zero: triangle_2 T at 128
# per side on the two sides at its needle corner reads 0.32 of the
# quadrature's change, and its residual fails there
DEFAULT_TOL_POLYGON = 2e-3
DEFAULT_TOL_SMOOTH = 1e-6
# a level converges only when its capacity error is also at most this
# share of the capacity: six digits, 500x inside the 5e-4 that the anchor
# tests ask of a solve
_CAPACITY_RTOL = 1e-6


def solve_capacity(
    b: BoundarySet, p: SolverParams | None = None, tol: float = DEFAULT_TOL_POLYGON
) -> SolveReport:
    """Capacity of (unit disk, E) with automatic refinement.

    One rule refines: each sector side k, between corners k and k + 1
    (mod the q corners), has its own rung of _ladder, and a level gives
    every side its rung's nodes.  Every side starts on the first rung.
    After a refused level, a corner v is marked when |Delta_v| is at least
    its share 1e-6 capacity / q of the capacity tolerance (a NaN or a
    capacity <= 0 marks every corner), and lifts its two sides, v - 1 and
    v, to one rung above the coarser of them.  A mirror-image corner has
    the same |Delta_v|, so it lifts the mirror images of those sides.  If
    that lifts no side, every side climbs one rung: no corner marked, so
    the residual alone refused the level, or every marked corner's sides
    already on the last rung.  With one corner (a folded regular plate, a
    circle) this is the plain ladder, each level about sqrt 2 finer per
    side than the last.  The first level that converges (its residual
    below tol and its capacity error at most 1e-6 of its capacity) is
    returned, else the one with every side on the last rung
    (converged=False).  SolverError is raised at once for a non-finite
    Nystrom matrix, and after the last level if its capacity is still
    not positive and finite.  p is a SolverParams or None (the
    defaults), else ConfigurationError.

    The default tol is the polygon residual tolerance, DEFAULT_TOL_POLYGON,
    for every plate: solve_capacity does not look at the plate to choose
    it.  A circle plate passed here directly is held to the disk residual
    tolerance only when the caller passes DEFAULT_TOL_SMOOTH, as cap_disk
    does.
    """
    if not _is_real(tol) or not 0.0 < tol < math.inf:
        raise ConfigurationError(f"tolerance must be a positive and finite real, got {tol!r}")
    if p is not None and not isinstance(p, SolverParams):
        raise ConfigurationError(f"solver parameters must be a SolverParams or None, got {p!r}")
    ladder = _ladder(p or SolverParams())
    top = len(ladder) - 1
    sides = [0] * (len(b.pieces) // b.symmetry)  # each sector side's rung
    while True:
        report = _solve_once(b, tuple(ladder[k] for k in sides), tol)
        if report.converged or min(sides) == top:
            break
        # marked: at or above its share of the capacity tolerance; a NaN or
        # a capacity <= 0 marks every corner
        share = _CAPACITY_RTOL * report.capacity / len(sides)
        lifted = list(sides)
        for v, part in enumerate(report.corner_error):
            if not part < share:
                # its sides v - 1 and v: one rung above the coarser of them
                rung = min(sides[v - 1], sides[v], top - 1) + 1
                lifted[v - 1], lifted[v] = max(lifted[v - 1], rung), max(lifted[v], rung)
        # nothing lifted: every side climbs one rung
        sides = lifted if lifted != sides else [min(k + 1, top) for k in sides]
    if not 0.0 < report.capacity < math.inf:
        raise SolverError(f"solver produced nonpositive capacity {report.capacity}")
    return report


def cap_polygon(
    poly: HypPolygon, tol: float = DEFAULT_TOL_POLYGON, params: SolverParams | None = None
) -> SolveReport:
    """Capacity of (unit disk, hyperbolic polygon)."""
    return solve_capacity(BoundarySet.from_polygon(poly), params, tol)


def cap_disk(d: HypDisk, tol: float = DEFAULT_TOL_SMOOTH) -> SolveReport:
    """Capacity of (unit disk, closed hyperbolic disk), numerically."""
    return solve_capacity(BoundarySet.from_euclid_disk(*hyp_disk_to_euclid(d)), tol=tol)
