"""Experiment drivers: capacity comparisons, tables, and sequences.

Each driver returns a list of ExperimentRow records.  A row stores every
number its verdicts compare, each compared solve's boundary residual
included (a sequence's previous row and the table's cell rows hold the
rest).  Every verdict on a solved capacity follows
one rule: it is True or False when the compared values differ by more
than the slack, twice the largest boundary residual of the solves
compared, and the string "inconclusive-within-residual" otherwise.  A
verdict over several comparisons is False if any of them is, else
inconclusive if any of them is, else True.  Checks between closed forms
keep their own rounding tolerances.

Default inputs mirror the published experiments: ten triangle vertex
triples, seven irregular polygons, the 9 x 5 regular-polygon grid, and
the area/perimeter sequences at c = 3 and c = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .capsolve import (
    DEFAULT_TOL_POLYGON,
    ConfigurationError,
    SolveReport,
    SolverError,
    cap_polygon,
)
from .condenser import ref_cap_area, ref_cap_perim, triangle_bounds_from_s
from .hypgeom import (
    GeometryError,
    HypPolygon,
    equilateral_triangle_radius,
    hyp_midpoint,
    mobius,
    polygon_measures,
    polygon_perimeter,
    regular_polygon,
    regular_radius_from_area,
    regular_radius_from_perimeter,
    triangle_measures,
)
from .specfun import f1, f2

__all__ = [
    "DEFAULT_POLYGON_ROWS",
    "DEFAULT_TRIANGLE_ROWS",
    "ExperimentRow",
    "recenter_triangle",
    "run_f1f2",
    "run_polygon_conjecture",
    "run_regular_table",
    "run_sequence_area",
    "run_sequence_perim",
    "run_triangle_bounds",
    "run_triangle_conjecture",
]

INCONCLUSIVE = "inconclusive-within-residual"

# published triangle experiments: vertex triples
DEFAULT_TRIANGLE_ROWS = [
    (0.6, 0.2 - 0.5j, -0.3 - 0.5j),
    (0.9, 0.2 - 0.5j, -0.3 - 0.5j),
    (0.3j, 0.3 - 0.5j, -0.3 - 0.5j),
    (0.5j, 0.25 - 0.4j, -0.25 - 0.4j),
    (0.9j, 0.78 - 0.45j, -0.78 - 0.45j),
    (0.95j, 0.7 - 0.4j, -0.5 - 0.8j),
    (0.2j, 0.17 - 0.1j, -0.17 - 0.1j),
    (0.1j, 0.087 - 0.05j, -0.087 - 0.05j),
    (-0.1j, 0.5 - 0.5j, -0.5 - 0.5j),
    (-0.1j, 0.7 - 0.5j, -0.7 - 0.5j),
]

# published polygon experiments: irregular starlike polygons about 0
DEFAULT_POLYGON_ROWS = [
    [0.6, 0.1 - 0.8j, -0.5 + 0.6j],
    [0.601, -0.6j, -0.599, 0.6j],
    [0.6, 0.1 - 0.8j, -0.5 - 0.5j, -0.5 + 0.6j, 0.5 + 0.5j],
    [0.6, 0.1 - 0.8j, -0.5 - 0.5j, -0.8, -0.5 + 0.6j, 0.5 + 0.5j],
    [0.6, 0.1 - 0.8j, -0.5 - 0.5j, -0.8, -0.5 + 0.6j, 0.9j, 0.5 + 0.5j],
    [0.6, 0.5 - 0.5j, 0.1 - 0.8j, -0.5 - 0.5j, -0.8, -0.5 + 0.6j, 0.9j, 0.5 + 0.5j],
    [
        0.7 + 0.2j, 0.7 - 0.2j, 0.4 - 0.5j, -0.8j, -0.4 - 0.7j, -0.7 - 0.4j,
        -0.8, -0.7 + 0.3j, -0.4 + 0.7j, 0.9j, 0.3 + 0.8j, 0.5 + 0.5j,
    ],
]

DEFAULT_TABLE_R = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
DEFAULT_TABLE_M = [3, 4, 5, 6, 7]

# residual tolerance of the sequence solves
TOL_SEQUENCE = 1e-2

# what a bad input row can raise; anything else is a bug and propagates
_ROW_ERRORS = (GeometryError, SolverError, ConfigurationError)


@dataclass
class ExperimentRow:
    """One record of an experiment run."""

    id: str
    inputs: dict
    values: dict = field(default_factory=dict)
    residual: float = 0.0
    verdicts: dict = field(default_factory=dict)
    error: str | None = None

    def passed(self) -> bool:
        """False verdicts fail; inconclusive counts as non-failure."""
        if self.error is not None:
            return False
        return all(v is not False for v in self.verdicts.values())


def _slack(*reports: SolveReport) -> float:
    """Verdict slack: twice the largest boundary residual of the solves."""
    return 2.0 * max(r.boundary_residual for r in reports)


def _ordered_verdict(larger: float, smaller: float, slack: float):
    """Three-valued check of larger >= smaller with residual slack."""
    if abs(larger - smaller) <= slack:
        return INCONCLUSIVE
    return bool(larger > smaller)


def _all_hold(verdicts):
    """False if any verdict is False, else inconclusive if any is, else True."""
    verdicts = list(verdicts)
    if any(v is False for v in verdicts):
        return False
    return INCONCLUSIVE if INCONCLUSIVE in verdicts else True


def _perimeter_bound_entries(report: SolveReport, perimeter: float, values, verdicts):
    bound = ref_cap_perim(perimeter)
    values["perimeter_bound"] = bound
    verdicts["within_perimeter_bound"] = _ordered_verdict(
        bound, report.capacity, _slack(report)
    )


def recenter_triangle(v1: complex, v2: complex, v3: complex) -> HypPolygon:
    """The triangle moved by the disk automorphism that sends
    a = hyp_midpoint(hyp_midpoint(v1, v2), v3) to 0.

    The capacity is invariant under disk automorphisms, and published
    triangle inputs need not surround 0, which HypPolygon needs (the
    plate starlike about 0).  A geodesic triangle is geodesically convex,
    so the midpoint of v1 and v2 lies on a side and a, the midpoint of
    the geodesic from it to v3, lies strictly inside: the moved triangle
    is starlike about 0.  hyp_midpoint commutes with isometries, so
    moving the input by an isometry first moves a with it, and the
    result differs only by a rotation (or reflection) about 0: where
    the input triangle sits does not change the recentred plate's
    vertex moduli.
    """
    a = hyp_midpoint(hyp_midpoint(v1, v2), v3)
    return HypPolygon.from_vertices([mobius(a, v) for v in (v1, v2, v3)])


def run_triangle_conjecture(rows=None) -> list[ExperimentRow]:
    """Compare cap(D, T) against the equilateral triangle of equal area.

    For each vertex triple: measure the triangle, build the equilateral
    competitor from the mean angle, solve both capacities, and check
    cap(T) >= cap(T0) with residual slack.
    """
    rows = DEFAULT_TRIANGLE_ROWS if rows is None else rows
    out = []
    for i, (v1, v2, v3) in enumerate(rows):
        rid = f"triangle_{i + 1}"
        inputs = {"vertices": [[v.real, v.imag] for v in map(complex, (v1, v2, v3))]}
        try:
            tm = triangle_measures(v1, v2, v3)
            omega = sum(tm.angles) / 3.0
            r0 = equilateral_triangle_radius(omega)
            t0_poly = regular_polygon(3, r0)
            area0 = polygon_measures(t0_poly).area
            rep_t = cap_polygon(recenter_triangle(v1, v2, v3), DEFAULT_TOL_POLYGON)
            rep_0 = cap_polygon(t0_poly, DEFAULT_TOL_POLYGON)
        except _ROW_ERRORS as exc:  # degenerate input rows keep the run going
            out.append(ExperimentRow(id=rid, inputs=inputs, error=str(exc)))
            continue
        residual = max(rep_t.boundary_residual, rep_0.boundary_residual)
        slack = _slack(rep_t, rep_0)
        values = {
            "cap_T": rep_t.capacity,
            "cap_T0": rep_0.capacity,
            "area_T": tm.area,
            "area_T0": area0,
            "equilateral_radius": r0,
            "mean_angle": omega,
            "residual_T": rep_t.boundary_residual,
            "residual_T0": rep_0.boundary_residual,
            "slack": slack,
        }
        verdicts = {
            "capacity_not_below_equilateral": _ordered_verdict(
                rep_t.capacity, rep_0.capacity, slack
            ),
            "equal_area": bool(abs(tm.area - area0) < 1e-9),
            "both_converged": bool(rep_t.converged and rep_0.converged),
        }
        _perimeter_bound_entries(rep_t, tm.perimeter, values, verdicts)
        out.append(
            ExperimentRow(
                id=rid, inputs=inputs, values=values, residual=residual, verdicts=verdicts
            )
        )
    return out


def run_polygon_conjecture(polygons=None) -> list[ExperimentRow]:
    """Compare cap(D, P) against the regular polygon of equal perimeter."""
    polygons = DEFAULT_POLYGON_ROWS if polygons is None else polygons
    out = []
    for i, vs in enumerate(polygons):
        m = len(vs)
        rid = f"polygon_m{m}_{i + 1}"
        inputs = {"vertices": [[complex(v).real, complex(v).imag] for v in vs]}
        try:
            poly = HypPolygon.from_vertices(vs)
            L = polygon_perimeter(poly)
            r0 = regular_radius_from_perimeter(m, L)
            p0 = regular_polygon(m, r0)
            rep_p = cap_polygon(poly, DEFAULT_TOL_POLYGON)
            rep_0 = cap_polygon(p0, DEFAULT_TOL_POLYGON)
        except _ROW_ERRORS as exc:
            out.append(ExperimentRow(id=rid, inputs=inputs, error=str(exc)))
            continue
        residual = max(rep_p.boundary_residual, rep_0.boundary_residual)
        slack = _slack(rep_p, rep_0)
        values = {
            "cap_P": rep_p.capacity,
            "cap_P0": rep_0.capacity,
            "perimeter": L,
            "regular_radius": r0,
            "residual_P": rep_p.boundary_residual,
            "residual_P0": rep_0.boundary_residual,
            "slack": slack,
        }
        verdicts = {
            "capacity_not_above_regular": _ordered_verdict(
                rep_0.capacity, rep_p.capacity, slack
            ),
            "both_converged": bool(rep_p.converged and rep_0.converged),
        }
        _perimeter_bound_entries(rep_p, L, values, verdicts)
        out.append(
            ExperimentRow(
                id=rid, inputs=inputs, values=values, residual=residual, verdicts=verdicts
            )
        )
    return out


def run_regular_table(m_list=None, r_list=None) -> list[ExperimentRow]:
    """Capacity grid over regular polygons (rows r, columns m)."""
    m_list = DEFAULT_TABLE_M if m_list is None else list(m_list)
    r_list = DEFAULT_TABLE_R if r_list is None else list(r_list)
    out = []
    grid = {}
    for r in r_list:
        for m in m_list:
            rid = f"table_r{r:g}_m{m}"
            poly = regular_polygon(m, r)
            rep = cap_polygon(poly, DEFAULT_TOL_POLYGON)
            grid[(r, m)] = rep
            values = {"capacity": rep.capacity, "r": float(r), "m": float(m)}
            verdicts = {"converged": bool(rep.converged)}
            _perimeter_bound_entries(rep, polygon_perimeter(poly), values, verdicts)
            out.append(
                ExperimentRow(
                    id=rid,
                    inputs={"m": m, "r": float(r)},
                    values=values,
                    residual=rep.boundary_residual,
                    verdicts=verdicts,
                )
            )
    def increasing(pairs):
        return _all_hold(
            _ordered_verdict(b.capacity, a.capacity, _slack(a, b)) for a, b in pairs
        )

    mono_m = increasing(
        (grid[(r, m1)], grid[(r, m2)]) for r in r_list for m1, m2 in zip(m_list, m_list[1:])
    )
    mono_r = increasing(
        (grid[(r1, m)], grid[(r2, m)]) for m in m_list for r1, r2 in zip(r_list, r_list[1:])
    )
    out.append(
        ExperimentRow(
            id="table_monotonicity",
            inputs={"m": m_list, "r": [float(r) for r in r_list]},
            values={f"r{r:g}_m{m}": grid[(r, m)].capacity for r in r_list for m in m_list},
            verdicts={"increasing_in_m": mono_m, "increasing_in_r": mono_r},
        )
    )
    return out


def _run_sequence(kind: str, c: float, m_range) -> list[ExperimentRow]:
    decreasing = kind == "area"
    out = []
    prev = None
    for m in m_range:
        rid = f"seq_{kind}_c{c:g}_m{m}"
        if decreasing:
            r = regular_radius_from_area(m, c)
            bound = ref_cap_area(c)
        else:
            r = regular_radius_from_perimeter(m, c)
            bound = ref_cap_perim(c)
        poly = regular_polygon(m, r)
        rep = cap_polygon(poly, TOL_SEQUENCE)
        slack = _slack(rep)
        values = {
            "capacity": rep.capacity,
            "r": r,
            "m": float(m),
            "reference_bound": bound,
            "slack": slack,
        }
        verdicts = {"converged": bool(rep.converged)}
        # a perimeter row's bound check is within_perimeter_bound below
        if decreasing:
            verdicts["above_area_bound"] = _ordered_verdict(rep.capacity, bound, slack)
        if prev is not None:
            values["previous_capacity"] = prev.capacity
            key = "decreasing_in_m" if decreasing else "increasing_in_m"
            larger, smaller = (prev, rep) if decreasing else (rep, prev)
            verdicts[key] = _ordered_verdict(larger.capacity, smaller.capacity, _slack(rep, prev))
        _perimeter_bound_entries(rep, polygon_perimeter(poly), values, verdicts)
        out.append(
            ExperimentRow(
                id=rid,
                inputs={"c": c, "m": m, "kind": kind},
                values=values,
                residual=rep.boundary_residual,
                verdicts=verdicts,
            )
        )
        prev = rep
    return out


def run_sequence_area(c: float = 3.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic area c: capacities should
    decrease with m toward the equal-area disk reference from above."""
    if not 0.0 < c < math.pi:
        raise ValueError(f"area sequences need 0 < c < pi, got {c}")
    return _run_sequence("area", c, m_range)


def run_sequence_perim(c: float = 20.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic perimeter c: capacities should
    increase with m toward the equal-perimeter circle reference."""
    if c <= 0.0:
        raise ValueError(f"perimeter sequences need c > 0, got {c}")
    return _run_sequence("perim", c, m_range)


def run_f1f2(c_grid=None) -> list[ExperimentRow]:
    """Disk-versus-slit capacity gap f1(c) - f2(c) over a perimeter grid."""
    if c_grid is None:
        n = 200
        c_grid = [0.05 + (100.0 - 0.05) * i / (n - 1) for i in range(n)]
    out = []
    for c in c_grid:
        a, b = f1(c), f2(c)
        out.append(
            ExperimentRow(
                id=f"f1f2_c{c:.6g}",
                inputs={"c": float(c)},
                values={"f1": a, "f2": b, "difference": a - b},
                verdicts={"disk_beats_slit": bool(a > b)},
            )
        )
    return out


def run_triangle_bounds(s_grid=None) -> list[ExperimentRow]:
    """Sandwich check: solved equilateral-triangle capacity between the
    spoke lower bound and the single-side upper bound."""
    s_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] if s_grid is None else s_grid
    out = []
    for s in s_grid:
        b = triangle_bounds_from_s(s)
        poly = regular_polygon(3, s)
        rep = cap_polygon(poly, DEFAULT_TOL_POLYGON)
        slack = _slack(rep)
        values = {
            "s": float(s),
            "lower": b.lower,
            "capacity": rep.capacity,
            "upper": b.upper_s,
            "upper_perim_form": b.upper_perim,
            "upper_area_form": b.upper_area,
        }
        verdicts = {
            "sandwich": _all_hold([
                _ordered_verdict(rep.capacity, b.lower, slack),
                _ordered_verdict(b.upper_s, rep.capacity, slack),
            ]),
            "rewrites_agree": bool(
                abs(b.upper_perim - b.upper_s) <= 1e-12 * b.upper_s
                and abs(b.upper_area - b.upper_s) <= 1e-10 * max(1.0, b.upper_s)
            ),
            "converged": bool(rep.converged),
        }
        _perimeter_bound_entries(rep, polygon_perimeter(poly), values, verdicts)
        out.append(
            ExperimentRow(
                id=f"bounds_s{s:g}",
                inputs={"s": float(s)},
                values=values,
                residual=rep.boundary_residual,
                verdicts=verdicts,
            )
        )
    return out
