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
row and the table's cell rows hold the rest).

Every verdict on a solved capacity follows one rule, _at_least(larger,
smaller).  Each side is a solve or a closed form, and the verdict is
True or False when the two values differ by more than the slack, and
"inconclusive-within-error" otherwise.  The slack is the error model of
the solves compared: twice the sum of their capacity errors (each the
sum over the sector's corners of |Delta_v|, the corner's share of the
correction capsolve adds to a level's quadrature), plus 1e-10 of the
sum of their capacities for rounding.  A closed form (a
disk bound, a bounds row's lower and upper bound) is exact and adds
nothing to it.  Where a row compares polygons of one shared measure, a
conjecture's plate with the regular m-gon of its area or perimeter, or
a sequence's m-gon with its predecessor at fixed area or perimeter, the
measure fixes the competitor's radius and the direction (_MEASURES): at
equal area the more symmetric polygon has the smaller capacity, at equal
perimeter the larger (for plane triangles and quadrilaterals, Polya and
Szego's theorem).  A verdict over several comparisons is False if any
of them is, else inconclusive if any of them is, else True.  Checks
between two closed forms (equal_area, equal_perimeter, rewrites_agree,
the f1f2 rows) keep their own rounding tolerances.  A row's
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
    _check_in_disk,
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
    error is the sum over the sector's corners of |Delta_v|, Delta_v the
    corner's share of the correction that estimates the quadrature's
    change to the doubled level (|Delta| itself on a one-corner sector);
    twice it covers the corrected capacity's distance to a level four
    times finer on every side, widened by that level's own capacity
    error, on every published plate (worst 0.285 of the slack,
    triangle_6 T at 362, 512 and 512 per side)."""
    return sum(2.0 * r.capacity_error + 1e-10 * r.capacity for r in reports)


def _at_least(larger, smaller):
    """Three-valued check of larger >= smaller, each a SolveReport or an
    exact closed-form float, with the _slack of the reports among them."""
    sides = (larger, smaller)
    a, b = (x.capacity if isinstance(x, SolveReport) else x for x in sides)
    if abs(a - b) <= _slack(*(x for x in sides if isinstance(x, SolveReport))):
        return INCONCLUSIVE
    return bool(a > b)


# each shared measure, a PolygonMeasures field: the radius of the regular
# m-gon of that measure, and whether the more symmetric polygon (the
# regular competitor, a sequence's next m) has the larger capacity
_MEASURES = {
    "area": (regular_radius_from_area, False),
    "perimeter": (regular_radius_from_perimeter, True),
}


def _symmetric_verdict(measure: str, symmetric, other):
    """_at_least in the direction _MEASURES gives the measure: symmetric
    above other at fixed perimeter, below it at fixed area."""
    above = _MEASURES[measure][1]
    return _at_least(*((symmetric, other) if above else (other, symmetric)))


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
    bounds = {"perimeter_bound": ref_cap_perim(pm.perimeter), "area_bound": ref_cap_area(pm.area)}
    values = dict(zip(names, (rep.capacity, rep.boundary_residual, rep.capacity_error))) | bounds
    verdicts = {
        "converged": bool(rep.converged),
        "within_perimeter_bound": _at_least(bounds["perimeter_bound"], rep),
        "above_area_bound": _at_least(rep, bounds["area_bound"]),
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
    A vertex that is not a point of the disk raises GeometryError, which
    names it vertex 0, 1 or 2 (hypgeom's point rule).
    """
    vs = [_check_in_disk(v, f"vertex {k}") for k, v in enumerate((v1, v2, v3))]
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


def _run_conjecture(vertex_lists, build, rid, x, measure, key):
    """For each vertex list: build the plate, solve it (_solve), build the
    regular m-gon of the plate's measured c (the measure field of its
    PolygonMeasures, at the _MEASURES radius), solve that competitor, and
    compare the two capacities under key in the measure's direction.
    equal_<measure> checks the competitor's c0 against c to 1e-12
    relative.  rid formats the row id from i (1-based) and m.  A vertex
    that is not a point of the disk makes a row error that names it
    (HypPolygon.from_vertices and recenter_triangle check every vertex),
    and so does a row that is not a vertex list (None, a number), whose
    id gives its vertex count as "?".  A solved row's inputs hold each
    vertex as [re, im], a row error's the vertices as given."""
    out = []
    for i, vs in enumerate(vertex_lists):
        try:
            m, given = len(vs), list(vs)
        except TypeError:  # no length: no vertex list
            m, given = "?", vs
        rid_i = rid.format(i=i + 1, m=m)
        try:
            if m == "?":
                raise GeometryError(f"row {vs!r} is not a vertex list")
            keys = (f"cap_{x}", f"residual_{x}", f"error_{x}")
            rep, values, verdicts, pm = _solve(build(vs), keys)
            c = getattr(pm, measure)
            r0 = _MEASURES[measure][0](m, c)
            competitor = regular_polygon(m, r0)
            rep_0, c0 = cap_polygon(competitor), getattr(polygon_measures(competitor), measure)
        except _ROW_ERRORS as exc:  # degenerate input rows keep the run going
            out.append(ExperimentRow(id=rid_i, inputs={"vertices": given}, error=str(exc)))
            continue
        inputs = {"vertices": [[complex(v).real, complex(v).imag] for v in vs]}
        values |= {
            f"cap_{x}0": rep_0.capacity, f"residual_{x}0": rep_0.boundary_residual,
            f"error_{x}0": rep_0.capacity_error, "slack": _slack(rep, rep_0),
            f"{measure}_{x}": c, f"{measure}_{x}0": c0, "regular_radius": r0,
        }
        verdicts["both_converged"] = verdicts.pop("converged") and bool(rep_0.converged)
        verdicts[key] = _symmetric_verdict(measure, rep_0, rep)
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
        "triangle_{i}", "T", "area", "capacity_not_below_equilateral",
    )


def run_polygon_conjecture(polygons=None) -> list[ExperimentRow]:
    """Compare cap(D, P) against the regular polygon P0 of equal perimeter."""
    return _run_conjecture(
        DEFAULT_POLYGON_ROWS if polygons is None else polygons, HypPolygon.from_vertices,
        "polygon_m{m}_{i}", "P", "perimeter", "capacity_not_above_regular",
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

    mono_m = _all_hold(
        _at_least(grid[(r, b)], grid[(r, a)]) for r in r_list for a, b in zip(m_list, m_list[1:])
    )
    mono_r = _all_hold(
        _at_least(grid[(b, m)], grid[(a, m)]) for m in m_list for a, b in zip(r_list, r_list[1:])
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


def _run_sequence(measure: str, kind: str, c: float, m_range) -> list[ExperimentRow]:
    """Regular m-gons of measure c, each compared with its predecessor in
    the measure's direction; kind names the sequence in ids and inputs."""
    radius, above = _MEASURES[measure]
    key = "increasing_in_m" if above else "decreasing_in_m"
    out = []
    prev = None
    for m in m_range:
        r = radius(m, c)
        rep, values, verdicts, _ = _solve(regular_polygon(m, r))
        values |= {"r": r, "m": float(m)}
        if prev is not None:
            values["previous_capacity"] = prev.capacity
            verdicts[key] = _symmetric_verdict(measure, rep, prev)
        inputs = {"c": c, "m": m, "kind": kind}
        out.append(ExperimentRow(f"seq_{kind}_c{c:g}_m{m}", inputs, values, verdicts))
        prev = rep
    return out


def run_sequence_area(c: float = 3.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic area c: capacities should
    decrease with m toward the equal-area disk reference from above.
    regular_radius_from_area checks c for each m, 0 < c < (m - 2) pi."""
    return _run_sequence("area", "area", c, m_range)


def run_sequence_perim(c: float = 20.0, m_range=range(3, 9)) -> list[ExperimentRow]:
    """Regular polygons of fixed hyperbolic perimeter c: capacities should
    increase with m toward the equal-perimeter circle reference.
    regular_radius_from_perimeter checks c for each m."""
    return _run_sequence("perimeter", "perim", c, m_range)


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
        values |= {
            "s": float(s), "lower": lower, "upper": upper,
            "upper_perim_form": upper_perim, "upper_area_form": upper_area,
        }
        verdicts["sandwich"] = _all_hold([_at_least(rep, lower), _at_least(upper, rep)])
        verdicts["rewrites_agree"] = all(
            abs(form - upper) <= 1e-12 * upper for form in (upper_perim, upper_area)
        )
        out.append(ExperimentRow(f"bounds_s{s:g}", {"s": float(s)}, values, verdicts))
    return out
