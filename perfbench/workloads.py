"""Seeded inputs of the benchmark workloads and the checks on their outputs.

Three workloads, each stressing a different part of the solver:

* ``regular``: regular m-gons (m 3..8, r 0.1..0.9) through the table,
  triangle-bounds and perimeter-sequence drivers.  Every solve converges
  at the first refinement level, so time is kernel and least squares on
  1400-4700-row systems; symmetry reduction and any kernel or lstsq
  change show here.
* ``irregular``: published triangle- and polygon-conjecture rows,
  including the needle triangle ``triangle_2`` (four refinement levels,
  never converged on the seed) and a 6-gon.  Time is the refinement
  ladder and recentring; regular-only speedups touch only the
  equilateral and regular competitors here.
* ``disks``: fresh seeded hyperbolic disks through ``cap_disk`` on
  160x33 systems, where per-call overhead dominates LAPACK; a change that
  pays off only on large matrices shows its cost here.

``disks`` runs by hand but is left out of BENCHMARK.json: on a shared
2-core host its per-call times switch between two levels about 1.5x
apart for tens of seconds at a time (the second core busy or not), so
its timing medians spread by 0.20-0.27 of the median across ten seeds,
as wide as the largest bound a metric may have.  The polygon workloads,
with passes of seconds, spread by 0.05-0.07.

The default seed gives the published inputs unchanged.  Other seeds
jitter them without changing each row's shape class: regular radii,
triangle sizes and the sequence perimeter shrink by one or two fixed
steps (so the reference table holds every input a seed can produce), and
irregular plates move by a small disk automorphism and rotation, which
leaves every capacity, angle and perimeter invariant.  Regular jitter
only shrinks because the published 3-gon at r = 0.9 sits on the edge of
first-level convergence: from r = 0.901 up its first level misses the
tolerance and the solve refines, which would leave the workload's class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from hypcap import capsolve, condenser, experiments, hypgeom

DEFAULT_SEED = 0
WORKLOADS = ("regular", "irregular", "disks")

# accuracy the anchor tests demand of a default polygon solve; a row's
# tolerance adds ten times its reference's self-convergence estimate
POLYGON_REL_TOL = 5e-4
DISK_REL_TOL = 1e-7
# verdicts that flag convergence, not a mathematical claim: counted in
# the converged share, never as failures
CONVERGENCE_VERDICTS = ("converged", "both_converged")

# regular workload: base values and the jitter step of each
TABLE_M = (3, 6)
TABLE_R = (0.1, 0.5, 0.9)
BOUNDS_S = (0.7,)
RADIUS_STEP = 0.002
SEQ_C = 20.0
SEQ_C_STEP = 0.1
SEQ_M = (4, 8)
# driver residual tolerances (the drivers' own defaults)
TOL_POLYGON = 2e-3
TOL_SEQUENCE = 1e-2

# irregular workload: published rows by their index in the paper's lists
TRIANGLES = {
    1: (0.6, 0.2 - 0.5j, -0.3 - 0.5j),
    2: (0.9, 0.2 - 0.5j, -0.3 - 0.5j),
    4: (0.5j, 0.25 - 0.4j, -0.25 - 0.4j),
    7: (0.2j, 0.17 - 0.1j, -0.17 - 0.1j),
    8: (0.1j, 0.087 - 0.05j, -0.087 - 0.05j),
}
POLYGONS = {
    4: (0.6, 0.1 - 0.8j, -0.5 - 0.5j, -0.8, -0.5 + 0.6j, 0.5 + 0.5j),
}
MOBIUS_SHIFT = 0.01
ROTATION = 0.05

DISKS_PER_PASS = 400
DISK_CENTER_MAX = 0.5
DISK_RADIUS_RANGE = (0.2, 2.2)


@dataclass(frozen=True)
class Solve:
    """One top-level capacity call: a plate, its driver tolerance, and
    the reference it is checked against (None: checked by verdicts)."""

    key: str
    plate: object
    tol: float
    ref: float | None
    rel_tol: float | None

    def call(self) -> capsolve.SolveReport:
        if isinstance(self.plate, hypgeom.HypDisk):
            return capsolve.cap_disk(self.plate, self.tol)
        return capsolve.cap_polygon(self.plate, self.tol)

    def rel_err(self, capacity: float) -> float | None:
        if self.ref is None:
            return None
        return abs(capacity - self.ref) / self.ref

    def ok(self, capacity: float) -> bool:
        if not (math.isfinite(capacity) and capacity > 0.0):
            return False
        err = self.rel_err(capacity)
        return err is None or err <= self.rel_tol


@dataclass(frozen=True)
class DriverCall:
    """One experiments.run_* call; rows[i] lists the (value name, solve
    key) pairs of the i-th row the driver returns."""

    name: str
    kwargs: dict
    rows: tuple


@dataclass
class Workload:
    name: str
    calls: list
    solves: list
    rng: np.random.Generator | None = None

    def next_solves(self) -> list:
        """Top-level solves of one pass; disks draw fresh plates."""
        if self.name != "disks":
            return self.solves
        return [_disk_solve(self.rng) for _ in range(DISKS_PER_PASS)]


JITTER_STEPS = (0, -1, -2)


def _step(rng, seed: int) -> int:
    return 0 if seed == DEFAULT_SEED else int(rng.choice(JITTER_STEPS[1:]))


def regular_key(m: int, r: float) -> str:
    return f"regular m={m} r={r:.6f}"


def sequence_key(m: int, c: float) -> str:
    return f"seq_perim m={m} c={c:.6f}"


def regular_variants() -> list:
    """Every (key, m, r or c, tol) a seed can ask of the regular workload."""
    out = []
    for k in JITTER_STEPS:
        for r in TABLE_R:
            rj = r + k * RADIUS_STEP
            out += [(regular_key(m, rj), m, rj, TOL_POLYGON) for m in TABLE_M]
        for s in BOUNDS_S:
            sj = s + k * RADIUS_STEP
            out.append((regular_key(3, sj), 3, sj, TOL_POLYGON))
        c = SEQ_C + k * SEQ_C_STEP
        for m in SEQ_M:
            r = hypgeom.regular_radius_from_perimeter(m, c)
            out.append((sequence_key(m, c), m, r, TOL_SEQUENCE))
    return out


def _regular(seed: int, reference: dict) -> Workload:
    rng = np.random.default_rng(seed)
    r_list = [r + _step(rng, seed) * RADIUS_STEP for r in TABLE_R]
    s_grid = [s + _step(rng, seed) * RADIUS_STEP for s in BOUNDS_S]
    c = SEQ_C + _step(rng, seed) * SEQ_C_STEP

    solves = {}

    def add(key, m, r, tol):
        if key not in solves:
            solves[key] = _polygon_solve(key, hypgeom.regular_polygon(m, r), tol, reference)
        return key

    table_rows = [
        (("capacity", add(regular_key(m, r), m, r, TOL_POLYGON)),)
        for r in r_list
        for m in TABLE_M
    ]
    table_rows.append(())  # the monotonicity row solves nothing itself
    bounds_rows = [(("capacity", add(regular_key(3, s), 3, s, TOL_POLYGON)),) for s in s_grid]
    seq_rows = [
        (("capacity", add(sequence_key(m, c), m, hypgeom.regular_radius_from_perimeter(m, c),
                          TOL_SEQUENCE)),)
        for m in SEQ_M
    ]
    calls = [
        DriverCall("run_regular_table", {"m_list": list(TABLE_M), "r_list": r_list}, tuple(table_rows)),
        DriverCall("run_triangle_bounds", {"s_grid": s_grid}, tuple(bounds_rows)),
        DriverCall("run_sequence_perim", {"c": c, "m_range": list(SEQ_M)}, tuple(seq_rows)),
    ]
    return Workload("regular", calls, list(solves.values()))


def _isometry(rng, seed: int):
    """A small disk automorphism followed by a small rotation."""
    if seed == DEFAULT_SEED:
        return lambda z: complex(z)
    a = MOBIUS_SHIFT * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
    turn = cmath.exp(1j * ROTATION * (2.0 * rng.random() - 1.0))
    return lambda z: turn * complex(hypgeom.mobius(a, complex(z)))


def _triangle_plates(vertices) -> tuple:
    """The two plates run_triangle_conjecture solves for a vertex triple."""
    tm = hypgeom.triangle_measures(*vertices)
    r0 = hypgeom.equilateral_triangle_radius(sum(tm.angles) / 3.0)
    return experiments.recenter_triangle(*vertices), hypgeom.regular_polygon(3, r0)


def _polygon_plates(vertices) -> tuple:
    """The two plates run_polygon_conjecture solves for a vertex list."""
    poly = hypgeom.HypPolygon.from_vertices(vertices)
    m = len(vertices)
    r0 = hypgeom.regular_radius_from_perimeter(m, hypgeom.polygon_perimeter(poly))
    return poly, hypgeom.regular_polygon(m, r0)


def _irregular(seed: int, reference: dict) -> Workload:
    rng = np.random.default_rng(seed)
    solves, tri_rows, poly_rows = [], [], []
    triangles, polygons = [], []
    for i, vs in TRIANGLES.items():
        f = _isometry(rng, seed)
        moved = tuple(f(v) for v in vs)
        triangles.append(moved)
        keys = (f"triangle_{i} T", f"triangle_{i} T0")
        for key, plate in zip(keys, _triangle_plates(moved)):
            solves.append(_polygon_solve(key, plate, TOL_POLYGON, reference))
        tri_rows.append((("cap_T", keys[0]), ("cap_T0", keys[1])))
    for i, vs in POLYGONS.items():
        f = _isometry(rng, seed)
        moved = [f(v) for v in vs]
        polygons.append(moved)
        keys = (f"polygon_{i} P", f"polygon_{i} P0")
        for key, plate in zip(keys, _polygon_plates(moved)):
            solves.append(_polygon_solve(key, plate, TOL_POLYGON, reference))
        poly_rows.append((("cap_P", keys[0]), ("cap_P0", keys[1])))
    calls = [
        DriverCall("run_triangle_conjecture", {"rows": triangles}, tuple(tri_rows)),
        DriverCall("run_polygon_conjecture", {"polygons": polygons}, tuple(poly_rows)),
    ]
    return Workload("irregular", calls, solves)


def irregular_plates() -> list:
    """(key, plate) of every default-seed irregular solve."""
    w = _irregular(DEFAULT_SEED, {})
    return [(s.key, s.plate) for s in w.solves]


def _disk_solve(rng) -> Solve:
    center = DISK_CENTER_MAX * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
    lo, hi = DISK_RADIUS_RANGE
    radius = lo + (hi - lo) * rng.random()
    return Solve(
        key="disk",
        plate=hypgeom.HypDisk(center, radius),
        tol=capsolve.DEFAULT_TOL_SMOOTH,
        ref=condenser.cap_hyp_disk(radius),
        rel_tol=DISK_REL_TOL,
    )


def _polygon_solve(key: str, plate, tol: float, reference: dict) -> Solve:
    entry = reference.get(key) or {}
    ref = entry.get("capacity")
    rel_tol = None if ref is None else POLYGON_REL_TOL + 10.0 * entry["self_convergence"]
    return Solve(key=key, plate=plate, tol=tol, ref=ref, rel_tol=rel_tol)


def build(name: str, seed: int, reference: dict) -> Workload:
    """The workload's inputs for a seed; reference maps solve keys to
    {"capacity", "self_convergence"} entries (see make_reference.py)."""
    if name == "regular":
        return _regular(seed, reference)
    if name == "irregular":
        return _irregular(seed, reference)
    if name == "disks":
        return Workload("disks", [], [], rng=np.random.default_rng(seed))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def check_rows(call: DriverCall, rows, solves: dict) -> list:
    """Outcome (key, capacity, ok) of every solve a driver call made.

    A solve fails when its row is missing or carries an error, when its
    row has a False verdict on a mathematical claim, or when its capacity
    misses its reference tolerance.  A False claim on a row that solves
    nothing itself (the table monotonicity row) fails every solve of the
    call.  Inconclusive verdicts and convergence flags are not failures.
    """
    def claims_hold(row) -> bool:
        return row.error is None and all(
            v is not False for k, v in row.verdicts.items() if k not in CONVERGENCE_VERDICTS
        )

    out = []
    call_ok = len(rows) == len(call.rows)
    for i, expected in enumerate(call.rows):
        row = rows[i] if i < len(rows) else None
        if row is None:
            out += [(key, float("nan"), False) for _, key in expected]
            continue
        if not expected:
            call_ok = call_ok and claims_hold(row)
            continue
        row_ok = claims_hold(row)
        for value, key in expected:
            cap = float(row.values.get(value, float("nan")))
            out.append((key, cap, row_ok and solves[key].ok(cap)))
    if not call_ok:
        out = [(key, cap, False) for key, cap, _ in out]
    return out
