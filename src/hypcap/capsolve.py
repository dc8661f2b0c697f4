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
  grid nodes u_j = pi j / N.  Each polygon side gets its own stretch of u
  with Kress's sigmoidal grading of order p = 6, which clusters nodes
  at the corners like a p-th power; a circle plate is one smooth piece
  at uniform speed.  The unknown is psi = sigma |dz/du|.
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
  least squares (gelsy, with a rank cutoff of 1e-12 relative).

A plate with n-fold rotational symmetry about 0 has an n-periodic
density.  The solver then discretizes one sector, parametrised by u in
[0, 2 pi) on its own, with the orbit-summed kernel

    G_n(z, zeta) = sum_{j<n} G(z, w^j zeta)
                 = log(|z^n - zeta^n| / |1 - conj(zeta^n) z^n|),  w = exp(2 pi i / n).

Its singular part on the sector parameter is again
1/2 log(4 sin^2((u - v)/2)): of the Kress weights of the whole boundary
only the terms with k a multiple of n survive the sum over rotations,
times n, which are the weights of the sector on its own.  The diagonal
term becomes log|d(z^n)/du| - log(1 - |z|^2n).  When the vertices form
one rotation orbit (a regular polygon) the plate is also symmetric
under sigma(z) = (v_0/|v_0|)^2 conj(z), which modulo rotations maps
side 0 onto itself by t -> 1 - t.  The graded nodes are symmetric too,
so node j pairs with node P - j of the side, and the solver fits only
the rows and columns with t <= 1/2, each column carrying the node and
its mirror image.  The node at t = 1/2 is its own image: its column is
doubled and its unknown halved.  The capacity is
-2 pi k (pi / N) sum_j psi_j, with k = n images per node, or 2n with
the mirror.

boundary_residual is the largest |potential - 1| at the midpoints
between the grid nodes (those not dropped), with the potential
evaluated by the same product quadrature, the weights taken at
half-step offsets.  A level converges when it is below tol; refinement
doubles the nodes per side.  A plate without symmetry starts at
SolverParams.nodes_per_side per side, a symmetry-reduced one at twice
that (see solve_capacity).

Evaluation.  The matrix and the potential at the midpoints are the two
O(n^2) steps of a level.  Both work in row blocks of about 2^16
entries, so that their temporaries stay in cache.  G_n is evaluated in
real arithmetic: with a = z^n and b = zeta^n,
|1 - conj(b) a|^2 = |a - b|^2 + (1 - |a|^2)(1 - |b|^2), so
G_n = -1/2 log1p((1 - |a|^2)(1 - |b|^2) / |a - b|^2).  The matrix is
symmetric, because G_n is, the Kress weights and the log-sine term are
even in the offset, and the mirror sigma is an isometry of the disk
with sigma^2 = id, so that G_n(z, sigma zeta) = G_n(sigma z, zeta).
Only the blocks on and right of the diagonal are evaluated.  At the
midpoints, the terms that depend only on the offset form one circular
convolution of a table over the offsets with the density spread on the
grid, done by FFT; only the G_n sums are evaluated block by block.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .hypgeom import GeometryError, HypDisk, HypPolygon, hyp_disk_to_euclid

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

_RANK_RTOL = 1e-12
# order of Kress's sigmoidal grading on polygon sides
_GRADING_ORDER = 6
# nodes this close to a side end (in the side parameter) are dropped
_VERTEX_GAP = 1e-9
# relative tolerance of the rotational-symmetry test on polygon vertices
_SYMMETRY_RTOL = 1e-12
# entries per block of the kernel build and the residual check: their
# float temporaries (512 KB each) stay in a core's L2 cache
_BLOCK_ENTRIES = 2**16


def _rotates_onto_itself(vertices, n: int) -> bool:
    """Whether n divides m and rotation by 2 pi / n about 0 maps vertex k
    onto vertex k + m/n, to 1e-12 of the largest vertex radius."""
    v = np.asarray(vertices, dtype=complex)
    if len(v) % n:
        return False
    moved = cmath.exp(2j * math.pi / n) * v
    err = np.max(np.abs(np.roll(v, -(len(v) // n)) - moved))
    return bool(err <= _SYMMETRY_RTOL * np.max(np.abs(v)))


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

    Either the chained geodesic sides of a hyperbolic polygon or a
    single smooth circle piece for disk-shaped plates; the outer
    boundary is always the unit circle, implicit.

    symmetry is the order n of the rotation group about 0 that maps the
    piece list onto itself, piece k onto piece k + m/n; the solver fits
    one sector of m/n pieces with the orbit-summed kernel.  from_polygon
    derives it from the vertices; it is 1 for disks and generic plates.
    """

    pieces: tuple
    symmetry: int = 1

    def __post_init__(self):
        # hyperbolic distance from 0 is convex along a geodesic, so a
        # side's largest |z| is at one of its ends
        top = max(
            abs(p.center) + p.radius if self.is_smooth else max(abs(p.z1), abs(p.z2))
            for p in self.pieces
        )
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
        return isinstance(self.pieces[0], _CirclePiece)

    @staticmethod
    def from_polygon(p: HypPolygon) -> "BoundarySet":
        return BoundarySet(
            pieces=tuple(p.sides),
            symmetry=max(n for n in range(1, p.m + 1) if _rotates_onto_itself(p.vertices, n)),
        )

    @staticmethod
    def from_euclid_disk(center: complex, radius: float) -> "BoundarySet":
        center = complex(center)
        if radius <= 0.0:
            raise GeometryError(f"disk radius must be positive, got {radius}")
        return BoundarySet(pieces=(_CirclePiece(center, radius),))

    @staticmethod
    def from_hyp_disk(d: HypDisk) -> "BoundarySet":
        return BoundarySet.from_euclid_disk(*hyp_disk_to_euclid(d))


@dataclass(frozen=True)
class SolverParams:
    """Resolution of the Nystrom discretization.

    nodes_per_side is the number of grid nodes per polygon side (or on
    a circle plate) at the first level of a plate without symmetry; it
    must be even, so that every side has a node on its midpoint.  A
    symmetry-reduced plate starts one doubling higher (see
    solve_capacity).  max_refine is how many times a level that misses
    the tolerance is retried with the nodes per side doubled.
    """

    nodes_per_side: int = 128
    max_refine: int = 3

    def __post_init__(self):
        if self.nodes_per_side < 8 or self.nodes_per_side % 2:
            raise ConfigurationError("nodes_per_side must be an even number of at least 8")
        if self.max_refine < 0:
            raise ConfigurationError("max_refine must be nonnegative")

    def doubled(self) -> "SolverParams":
        return replace(self, nodes_per_side=2 * self.nodes_per_side)


@dataclass(frozen=True)
class Discretization:
    """Nodes and check points of one level on the sector's grid.

    The sector (the whole boundary for symmetry 1) is parametrised by
    u in [0, 2 pi) with n_grid equispaced grid nodes.  Positions are
    counted in half steps of that grid: nodes sit at even positions,
    check points at the odd ones between them, so a point at position
    k has u = pi k / n_grid.  nodes are the kept grid nodes (the fitted
    unknowns and rows); with a mirror (the unit factor of
    sigma(z) = mirror * conj(z), set for regular polygons) only those
    with u <= pi, and each also stands for its image at position -k.
    diagonal is the limit of the smooth part of the kernel at each node,
    log|d(z^n)/du| - log(1 - |z|^2n).
    """

    nodes: np.ndarray
    pos: np.ndarray
    diagonal: np.ndarray
    check: np.ndarray
    check_pos: np.ndarray
    n_grid: int
    symmetry: int
    mirror: complex | None = None

    @property
    def order(self) -> int:
        """Plate images per node: n rotations, twice that with the mirror."""
        return self.symmetry if self.mirror is None else 2 * self.symmetry

    @property
    def n_collocation(self) -> int:
        return len(self.nodes)


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


@functools.lru_cache(maxsize=None)
def _kress_weights(n_grid: int) -> np.ndarray:
    """Kress's product weights R_j(u) for log(4 sin^2((u - u_j)/2)) on
    n_grid = 2N nodes, at the half-step offsets u - u_j = pi k / n_grid,
    k = 0 .. 2 n_grid - 1 (even k reach nodes, odd k midpoints).  The
    array is read-only: every caller of one size shares it."""
    half = n_grid // 2
    k = np.arange(1, half + 1)
    coef = -2.0 * math.pi / (half * k)
    coef[-1] = -math.pi / half**2
    # irfft of length 2 n_grid turns these into sum_k coef_k cos(k x)
    spectrum = np.zeros(n_grid + 1)
    spectrum[1 : half + 1] = n_grid * coef
    weights = np.fft.irfft(spectrum, n=2 * n_grid)
    weights.setflags(write=False)
    return weights


def discretize(b: BoundarySet, p: SolverParams) -> Discretization:
    """Graded nodes and midpoint check points of one sector.

    Each of the sector's q = m / n sides gets p.nodes_per_side grid
    nodes with Kress grading of order 6, on its stretch of u; a circle
    plate gets them at uniform speed.  Polygon nodes and check points
    within 1e-9 of a side end in the side parameter are dropped.  For a
    regular polygon only the half of side 0 with t <= 1/2 is kept.
    """
    n = b.symmetry
    sector = b.pieces[: len(b.pieces) // n]
    q, per_side = len(sector), p.nodes_per_side
    n_grid = q * per_side
    s = math.pi * np.arange(2 * per_side) / per_side
    if b.is_smooth:
        tau, dtau = s / (2.0 * math.pi), np.full(s.shape, 0.5 / math.pi)
        keep = np.ones(s.shape, dtype=bool)
    else:
        tau, gap, dtau = _kress_grading(s, _GRADING_ORDER)
        keep = gap >= _VERTEX_GAP
    # s = q u - 2 pi k on side k
    z = np.concatenate([piece.point(tau) for piece in sector])
    dz = np.concatenate([piece.tangent(tau) * (q * piece.euclid_length()) * dtau for piece in sector])
    pos = np.arange(2 * n_grid)
    keep = np.tile(keep, q)
    mirror = None
    if not b.is_smooth and n == len(b.pieces):
        v0 = complex(b.pieces[0].z1)
        mirror = (v0 / abs(v0)) ** 2
        keep &= pos <= n_grid
    nodes = keep & (pos % 2 == 0)
    check = keep & (pos % 2 == 1)
    zn = z[nodes]
    log_speed = math.log(n) + (n - 1) * np.log(np.abs(zn)) + np.log(np.abs(dz[nodes]))
    return Discretization(
        nodes=zn,
        pos=pos[nodes],
        diagonal=log_speed - np.log1p(-np.abs(zn) ** (2 * n)),
        check=z[check],
        check_pos=pos[check],
        n_grid=n_grid,
        symmetry=n,
        mirror=mirror,
    )


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one capacity solve.

    n_collocation counts the unknowns (and rows) of the fitted square
    system: the kept nodes of one sector, of half a side for a regular
    polygon.  boundary_residual is max|u - 1| at the midpoints between
    those nodes, and converged says it is below the tolerance.
    """

    capacity: float
    boundary_residual: float
    n_collocation: int
    converged: bool
    symmetry: int


def _green(z: np.ndarray, zeta: np.ndarray, n: int) -> np.ndarray:
    """Orbit-summed Green's function G_n(z, zeta) at points z (rows) for
    sources zeta (cols).

    The products over the rotations w^j zeta, w = exp(2 pi i / n), are
    prod_j (z - w^j zeta) = z^n - zeta^n and prod_j (1 - conj(w^j zeta) z)
    = 1 - conj(zeta^n) z^n, so G_n is the plain disk Green's function of
    a = z^n and b = zeta^n (n = 1 is that of z and zeta).  With the
    identity |1 - conj(b) a|^2 = |a - b|^2 + (1 - |a|^2)(1 - |b|^2),

        G_n(z, zeta) = -1/2 log1p((1 - |a|^2)(1 - |b|^2) / |a - b|^2),

    in real arithmetic and without the cancellation in 1 - conj(b) a
    near the unit circle.  It is symmetric in z and zeta, vanishes on
    |z| = 1, and is -inf (after a divide-by-zero) where a = b.
    """
    # contiguous real and imaginary parts: the outer loops over them vectorize
    (ar, ai), (br, bi) = (
        (np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag)) for w in (z**n, zeta**n)
    )
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


@functools.lru_cache(maxsize=None)
def _offset_table(n_grid: int) -> np.ndarray:
    """The kernel's terms that depend only on the half-step offset k
    between a point and a node image, 1/2 R(pi k / n_grid) -
    h log|2 sin(pi k / 2 n_grid)| (the log-sine term left out at k = 0,
    where the diagonal limit replaces it), at index k + 2 n_grid for
    -2 n_grid <= k <= 2 n_grid, so that no index needs a modulus.  It
    is even in k; read-only and shared like _kress_weights."""
    period = 2 * n_grid
    h = 2.0 * math.pi / n_grid
    offset = 0.5 * _kress_weights(n_grid)
    offset[1:] -= h * np.log(2.0 * np.sin(math.pi / period * np.arange(1, period)))
    table = np.concatenate([offset, offset, offset[:1]])
    table.setflags(write=False)
    return table


def _images(d: Discretization):
    """Each node's plate images as (points, half-step positions): the
    nodes themselves and, with a mirror, their mirror images at -pos."""
    images = [(d.nodes, d.pos)]
    if d.mirror is not None:
        images.append((d.mirror * np.conj(d.nodes), -d.pos))
    return images


def _block_rows(n_cols: int) -> int:
    """Rows per block of an O(n^2) evaluation over n_cols columns, so
    that each temporary holds about _BLOCK_ENTRIES entries."""
    return max(1, _BLOCK_ENTRIES // n_cols)


def _kernel(d: Discretization) -> np.ndarray:
    """Nystrom matrix: the potential at each node (rows) of unit density
    at each node (cols).

    Entry (i, j) sums over the node's images (itself, and its mirror
    image at position -pos_j when d.mirror is set):

        h * (G_n(z_i, zeta) - 1/2 log(4 sin^2((u_i - v)/2))) + 1/2 R(u_i - v),

    with trapezoid weight h = 2 pi / n_grid and the Kress weights R.
    Where a row is the image itself, the bracket takes its limit
    log|d(z^n)/du| - log(1 - |z|^2n).

    The matrix is symmetric: G_n(z, zeta) = G_n(zeta, z); the Kress
    weights and the log-sine term are even in the offset u_i - v; and
    the mirror sigma(z) = mirror * conj(z) is an isometry of the disk
    with sigma^2 = id, so G_n(z_i, sigma zeta_j) = G_n(sigma z_i, zeta_j)
    = G_n(zeta_j, sigma z_i), at offset pos_i + pos_j either way.  So
    only the row blocks from the diagonal rightwards are evaluated, and
    their transposes copied below.  Each block holds about
    _BLOCK_ENTRIES entries, so that its temporaries stay in cache.
    """
    size, period = d.n_collocation, 2 * d.n_grid
    h = 2.0 * math.pi / d.n_grid
    table = _offset_table(d.n_grid)
    images = _images(d)
    A = np.empty((size, size))
    step = _block_rows(size)
    for start in range(0, size, step):
        stop = min(start + step, size)
        rows = slice(start, stop)
        own = np.arange(stop - start)
        for k, (zeta, at) in enumerate(images):
            with np.errstate(divide="ignore"):
                part = _green(d.nodes[rows], zeta[start:], d.symmetry)
            part *= h
            part += table[np.subtract.outer(d.pos[rows] + period, at[start:])]
            # the node's own image: the singular diagonal takes its limit
            hit = (d.pos[rows] - at[rows]) % period == 0
            part[own[hit], own[hit]] = h * d.diagonal[rows][hit] + table[period]
            if k:
                A[rows, start:] += part
            else:
                A[rows, start:] = part
        # the diagonal block is symmetric to rounding: averaging it with
        # its transpose makes it exactly so; the blocks below it are the
        # transposes of the blocks to its right
        square = A[rows, rows]
        square += square.T
        square *= 0.5
        A[stop:, rows] = A[rows, stop:].T
    return A


def _check_potential(d: Discretization, psi: np.ndarray) -> np.ndarray:
    """Potential of the density psi at the check points (the midpoints).

    The terms of _kernel's entries that depend only on the half-step
    offset are a circular convolution of the offset table with psi
    spread on the grid, each image of a node at its own position; one
    rfft and irfft give them at every position.  A check point never
    meets a node image (they sit at odd and even positions), so only
    h * sum_images G_n(check, zeta) psi is left, which is summed block
    by block without building a check matrix.
    """
    period = 2 * d.n_grid
    h = 2.0 * math.pi / d.n_grid
    images = _images(d)
    spread = np.zeros(period)
    for _, at in images:
        spread += np.bincount(at % period, weights=psi, minlength=period)
    spectrum = np.fft.rfft(_offset_table(d.n_grid)[:period])
    u = np.fft.irfft(spectrum * np.fft.rfft(spread), n=period)[d.check_pos]
    sources = np.concatenate([zeta for zeta, _ in images])
    weights = np.tile(h * psi, len(images))
    step = _block_rows(len(weights))
    for start in range(0, len(d.check), step):
        rows = slice(start, start + step)
        u[rows] += _green(d.check[rows], sources, d.symmetry) @ weights
    return u


def _solve_once(b: BoundarySet, p: SolverParams, tol: float) -> SolveReport:
    d = discretize(b, p)
    A = _kernel(d)
    if not np.all(np.isfinite(A)):
        raise SolverError("non-finite entries in the Nystrom matrix")
    # a rank-zero matrix gives psi = 0, which the capacity test rejects
    psi = scipy.linalg.lstsq(
        A, np.ones(d.n_collocation), cond=_RANK_RTOL, lapack_driver="gelsy"
    )[0]
    del A

    h = 2.0 * math.pi / d.n_grid
    capacity = -2.0 * math.pi * d.order * h * float(np.sum(psi))
    if not math.isfinite(capacity) or capacity <= 0.0:
        raise SolverError(f"solver produced nonpositive capacity {capacity}")

    residual = float(np.max(np.abs(_check_potential(d, psi) - 1.0)))
    return SolveReport(
        capacity=capacity,
        boundary_residual=residual,
        n_collocation=d.n_collocation,
        converged=residual < tol,
        symmetry=d.symmetry,
    )


# default residual tolerances; the sampled residual bounds the capacity
# change to the next level (tests/test_capsolve.py checks this on
# published plates), so 2e-3 keeps polygon capacities well inside 5e-4
# relative
DEFAULT_TOL_POLYGON = 2e-3
DEFAULT_TOL_SMOOTH = 1e-6


def solve_capacity(
    b: BoundarySet, p: SolverParams | None = None, tol: float = DEFAULT_TOL_POLYGON
) -> SolveReport:
    """Capacity of (unit disk, E) with automatic refinement.

    Solves at the given parameters and, while the boundary residual
    exceeds tol, retries with doubled nodes per side up to max_refine
    times; the last report carries converged=False if the ladder is
    exhausted.  A plate with symmetry n > 1 starts one doubling higher:
    its system is n-fold (regular polygons 2n-fold) smaller, so the
    extra level is cheap, and sharp regular corners (the 3-gon at
    r = 0.9) need it to resolve the capacity to the accuracy the
    residual promises.
    """
    if tol <= 0.0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    p = p or SolverParams()
    if b.symmetry > 1:
        p = p.doubled()
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
