"""Experiment drivers: capacity comparisons, tables, and sequences.

Each driver returns a list of ExperimentRow records.  Every bound a row
checks comes from the plate it solved: _solve solves and measures the
plate alone, at the solver's default tolerance, and checks both disk
theorems, the equal-area disk below its capacity and the equal-perimeter
disk above; bounds rows add the upper bound's two forms.  values hold
each capacity beside its boundary residual and its capacity error,
"capacity", "residual" and "error"; conjecture rows (X = T for
triangles, P for polygons) hold "cap_X", "residual_X", "error_X", the
regular competitor's "cap_X0", "residual_X0" and "error_X0", their
"slack", the matched measure of both ("area_X" and "area_X0", or
"perimeter_X" and "perimeter_X0") and the competitor's "regular_radius".
So a row stores every number its verdicts compare (a sequence's previous
row and the table's cell rows hold the rest).  Every verdict on a solved
capacity follows one rule: it is True or False when the compared values
differ by more than the slack, and "inconclusive-within-error"
otherwise.  The slack is the error model of the solves compared: twice
the sum of their capacity errors (each the estimated change of the
capacity at twice the nodes, see capsolve), plus 1e-10 of the sum of
their capacities for rounding.  A verdict over several comparisons is
False if any of them is, else inconclusive if any of them is, else
True.  Closed-form checks keep their own rounding tolerances.  A row's
"converged" verdict ("both_converged" on conjecture rows, for the plate
and its competitor) states what capsolve's converged does: the boundary
residual met the tolerance and the capacity error is at most 1e-6 of
the capacity, so each converged capacity carries six digits by its own
estimate.

Default inputs mirror the published experiments: ten triangle vertex
triples, seven irregular polygons, the 9 x 5 regular-polygon grid, and
the area/perimeter sequences at c = 3 and c = 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .capsolve import SolveReport, SolverError, cap_polygon
from .condenser import ref_cap_area, ref_cap_perim, triangle_bounds_from_s
from .hypgeom import (
    GeometryError,
    HypPolygon,
    hyp_dist,
    hyp_midpoint,
    mobius,
    polygon_measures,
    regular_polygon,
    regular_radius_from_area,
    regular_radius_from_perimeter,
)
from .specfun import f2, mu

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

INCONCLUSIVE = "inconclusive-within-error"

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

# what a bad input row can raise; anything else is a bug and propagates.
# No row passes solver params or a tolerance, so a ConfigurationError is
# a bug too
_ROW_ERRORS = (GeometryError, SolverError)


@dataclass
class ExperimentRow:
    """One record of an experiment run.  Each solved capacity in values
    has its boundary residual and capacity error beside it (see _solve)."""

    id: str
    inputs: dict
    values: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    error: str | None = None

    def passed(self) -> bool:
        """False verdicts fail; inconclusive counts as non-failure."""
        if self.error is not None:
            return False
        return all(v is not False for v in self.verdicts.values())


def _slack(*reports: SolveReport) -> float:
    """Verdict slack: twice the sum of the solves' capacity errors, plus
    1e-10 of the sum of their capacities for rounding.  Each capacity
    error estimates the change to the doubled level; twice it covers a
    level four times finer on every published plate (worst 0.59 of the
    slack)."""
    return sum(2.0 * r.capacity_error + 1e-10 * r.capacity for r in reports)


def _ordered_verdict(larger: float, smaller: float, slack: float):
    """Three-valued check of larger >= smaller with slack."""
    if abs(larger - smaller) <= slack:
        return INCONCLUSIVE
    return bool(larger > smaller)


def _all_hold(verdicts):
    """False if any verdict is False, else inconclusive if any is, else True."""
    verdicts = list(verdicts)
    if any(v is False for v in verdicts):
        return False
    return INCONCLUSIVE if INCONCLUSIVE in verdicts else True


def _solve(plate, names=("capacity", "residual", "error")):
    """Solve one plate: the report, the values and verdicts every solved
    row carries, and the plate's PolygonMeasures.  The plate alone fixes
    the solve, at the solver's default tolerance, and both disk bounds,
    ref_cap_area(area) <= cap <= ref_cap_perim(perimeter); names key the
    capacity, its residual and its capacity error."""
    rep, pm = cap_polygon(plate), polygon_measures(plate)
    cap, slack = rep.capacity, _slack(rep)
    bounds = {"perimeter_bound": ref_cap_perim(pm.perimeter), "area_bound": ref_cap_area(pm.area)}
    values = dict(zip(names, (cap, rep.boundary_residual, rep.capacity_error))) | bounds
    verdicts = {
        "converged": bool(rep.converged),
        "within_perimeter_bound": _ordered_verdict(bounds["perimeter_bound"], cap, slack),
        "above_area_bound": _ordered_verdict(cap, bounds["area_bound"], slack),
    }
    return rep, values, verdicts, pm


def recenter_triangle(v1: complex, v2: complex, v3: complex) -> HypPolygon:
    """The triangle moved by the disk automorphism that sends
    a = hyp_midpoint(hyp_midpoint(b1, b2), apex) to 0: the apex is the
    first of v3, v1, v2 whose two sides are equal to 1e-12 relative (v3
    if none), and b1, b2 follow it in cyclic order.

    The capacity is invariant under disk automorphisms, and published
    triangle inputs need not surround 0, which HypPolygon needs (the
    plate starlike about 0).  A geodesic triangle is geodesically convex,
    so the midpoint of b1 and b2 lies on a side and a, the midpoint of
    the geodesic from it to the apex, lies strictly inside: the moved
    triangle is starlike about 0.  An isosceles triangle's mirror axis
    runs through the apex and a, so the moved plate has one through 0,
    for the solver to fold.  hyp_midpoint commutes with isometries, so
    moving the input by an isometry first moves a with it, and the
    result differs only by a rotation (or reflection) about 0: where the
    input triangle sits does not change the recentred plate's vertex moduli.
    """
    vs = (v1, v2, v3)
    side = [hyp_dist(vs[k - 1], vs[k]) for k in range(3)]  # sides k and k + 1 meet at vertex k
    k = next((k for k in (2, 0, 1) if math.isclose(side[k], side[k - 2], rel_tol=1e-12)), 2)
    a = hyp_midpoint(hyp_midpoint(vs[k - 2], vs[k - 1]), vs[k])
    return HypPolygon.from_vertices([mobius(a, v) for v in vs])


def _recentred(vs) -> HypPolygon:
    """recenter_triangle of a triangle row, GeometryError for a row of
    other than 3 vertices."""
    if len(vs) != 3:
        raise GeometryError(f"triangle row needs 3 vertices, got {len(vs)}")
    return recenter_triangle(*vs)


def _run_conjecture(vertex_lists, build, rid, x, measure, radius, key, plate_above):
    """For each vertex list: build the plate, solve it (_solve), build the
    regular m-gon radius(m, c) of the plate's measured c (the measure
    field of its PolygonMeasures), solve that competitor, and check
    cap(plate) >= cap(competitor) under key (<= if not plate_above).
    equal_<measure> checks the competitor's c0 against c to 1e-12
    relative.  rid formats the row id from i (1-based) and m."""
    out = []
    for i, vs in enumerate(vertex_lists):
        m = len(vs)
        rid_i = rid.format(i=i + 1, m=m)
        inputs = {"vertices": [[complex(v).real, complex(v).imag] for v in vs]}
        try:
            keys = (f"cap_{x}", f"residual_{x}", f"error_{x}")
            rep, values, verdicts, pm = _solve(build(vs), keys)
            c = getattr(pm, measure)
            r0 = radius(m, c)
            competitor = regular_polygon(m, r0)
            rep_0, c0 = cap_polygon(competitor), getattr(polygon_measures(competitor), measure)
        except _ROW_ERRORS as exc:  # degenerate input rows keep the run going
            out.append(ExperimentRow(id=rid_i, inputs=inputs, error=str(exc)))
            continue
        cap, cap0, slack = rep.capacity, rep_0.capacity, _slack(rep, rep_0)
        values |= {
            f"cap_{x}0": cap0, f"residual_{x}0": rep_0.boundary_residual,
            f"error_{x}0": rep_0.capacity_error, "slack": slack,
            f"{measure}_{x}": c, f"{measure}_{x}0": c0, "regular_radius": r0,
        }
        verdicts["both_converged"] = verdicts.pop("converged") and bool(rep_0.converged)
        verdicts[key] = _ordered_verdict(*((cap, cap0) if plate_above else (cap0, cap)), slack)
        verdicts[f"equal_{measure}"] = bool(abs(c - c0) <= 1e-12 * c)
        out.append(ExperimentRow(rid_i, inputs, values, verdicts))
    return out


def run_triangle_conjecture(rows=None) -> list[ExperimentRow]:
    """Compare cap(D, T) against the equilateral triangle T0 of equal area.

    Each triple is recentred (recenter_triangle), an isometry, and T0
    takes the area of the plate solved; a row of other than 3 vertices
    is a row error."""
    return _run_conjecture(
        DEFAULT_TRIANGLE_ROWS if rows is None else rows, _recentred,
        "triangle_{i}", "T", "area", regular_radius_from_area,
        "capacity_not_below_equilateral", True,
    )


def run_polygon_conjecture(polygons=None) -> list[ExperimentRow]:
    """Compare cap(D, P) against the regular polygon P0 of equal perimeter."""
    return _run_conjecture(
        DEFAULT_POLYGON_ROWS if polygons is None else polygons, HypPolygon.from_vertices,
        "polygon_m{m}_{i}", "P", "perimeter", regular_radius_from_perimeter,
        "capacity_not_above_regular", False,
    )


def run_regular_table(m_list=None, r_list=None) -> list[ExperimentRow]:
    """Capacity grid over regular polygons (rows r, columns m)."""
    m_list = DEFAULT_TABLE_M if m_list is None else list(m_list)
    r_list = DEFAULT_TABLE_R if r_list is None else list(r_list)
    out = []
    grid = {}
    for r in r_list:
        for m in m_list:
            rid = f"table_r{r:g}_m{m}"
            rep, values, verdicts, _ = _solve(regular_polygon(m, r))
            grid[(r, m)] = rep
            values |= {"r": float(r), "m": float(m)}
            out.append(ExperimentRow(rid, {"m": m, "r": float(r)}, values, verdicts))

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
    radius = regular_radius_from_area if decreasing else regular_radius_from_perimeter
    out = []
    prev = None
    for m in m_range:
        rid = f"seq_{kind}_c{c:g}_m{m}"
        r = radius(m, c)
        rep, values, verdicts, _ = _solve(regular_polygon(m, r))
        values |= {"r": r, "m": float(m)}
        if prev is not None:
            values["previous_capacity"] = prev.capacity
            key = "decreasing_in_m" if decreasing else "increasing_in_m"
            larger, smaller = (prev, rep) if decreasing else (rep, prev)
            verdicts[key] = _ordered_verdict(larger.capacity, smaller.capacity, _slack(rep, prev))
        out.append(ExperimentRow(rid, {"c": c, "m": m, "kind": kind}, values, verdicts))
        prev = rep
    return out


def run_sequence_area(c: float = 3.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic area c: capacities should
    decrease with m toward the equal-area disk reference from above.
    regular_radius_from_area checks c for each m, 0 < c < (m - 2) pi."""
    return _run_sequence("area", c, m_range)


def run_sequence_perim(c: float = 20.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic perimeter c: capacities should
    increase with m toward the equal-perimeter circle reference.
    regular_radius_from_perimeter checks c for each m."""
    return _run_sequence("perim", c, m_range)


def run_f1f2(c_grid=None) -> list[ExperimentRow]:
    """Disk-versus-slit capacity gap f1(c) - f2(c) over a perimeter grid,
    and the two-sided bound f2(c) < f1(c) < (pi/2) f2(c), where f1 is
    ref_cap_perim.  With t = th(c/4) it reads 1 < mu(t) / arsh(pi / (2
    arth t)) < pi/2."""
    if c_grid is None:
        n = 200
        c_grid = [0.05 + (100.0 - 0.05) * i / (n - 1) for i in range(n)]
    out = []
    for c in c_grid:
        a, b = ref_cap_perim(c), f2(c)
        out.append(
            ExperimentRow(
                id=f"f1f2_c{c:.6g}",
                inputs={"c": float(c)},
                values={"f1": a, "f2": b, "difference": a - b},
                verdicts={
                    "disk_beats_slit": bool(a > b),
                    "disk_within_half_pi_of_slit": bool(a < 0.5 * math.pi * b),
                },
            )
        )
    return out


def run_triangle_bounds(s_grid=None) -> list[ExperimentRow]:
    """Sandwich check: solved equilateral-triangle capacity between the
    spoke lower bound and the single-side upper bound, and that bound's
    perimeter and area forms 3 pi / mu(th(u/6)) and (12/pi) mu(r'), r' =
    2 sin((pi - v)/6) = 1/ch(u/6), at the plate's measured u and v.  Each
    mu is passed its complementary modulus, 1/ch(u/6) and sqrt(d (2 - d))
    with d = 1 - r' = 2 sin^2(v/12) + sqrt(3) sin(v/6), so neither cancels."""
    s_grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] if s_grid is None else s_grid
    out = []
    for s in s_grid:
        lower, upper = triangle_bounds_from_s(s)
        rep, values, verdicts, pm = _solve(regular_polygon(3, s))
        x, v = pm.perimeter / 6.0, pm.area
        upper_perim = 3.0 * math.pi / mu(math.tanh(x), 1.0 / math.cosh(x))
        d = 2.0 * math.sin(v / 12.0) ** 2 + math.sqrt(3.0) * math.sin(v / 6.0)
        r_prime = 2.0 * math.sin((math.pi - v) / 6.0)
        upper_area = (12.0 / math.pi) * mu(r_prime, math.sqrt(d * (2.0 - d)))
        slack = _slack(rep)
        values |= {
            "s": float(s), "lower": lower, "upper": upper,
            "upper_perim_form": upper_perim, "upper_area_form": upper_area,
        }
        verdicts["sandwich"] = _all_hold([
            _ordered_verdict(rep.capacity, lower, slack),
            _ordered_verdict(upper, rep.capacity, slack),
        ])
        verdicts["rewrites_agree"] = all(
            abs(form - upper) <= 1e-12 * upper for form in (upper_perim, upper_area)
        )
        out.append(ExperimentRow(f"bounds_s{s:g}", {"s": float(s)}, values, verdicts))
    return out
