"""Tests of the experiment drivers.

Each driver runs on a few cheap published inputs; no row may carry an
error or a False verdict, and each row has the driver's exact verdict
keys, the capacities the benchmark reads, and beside every stored
capacity its residual and capacity error ("capacity", "residual" and
"error", or "cap_X", "residual_X" and "error_X").  Bad input rows are
recorded as row errors, while any other exception is a bug and must
propagate.  The full published sweep runs once; every verdict on a
solved capacity must follow the capacity-error slack rule and be
recomputable from the values the rows store.
"""

import cmath
import dataclasses
import inspect
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcap import capsolve, experiments
from hypcap.capsolve import DEFAULT_TOL_POLYGON, BoundarySet, cap_polygon
from hypcap.condenser import ref_cap_area, ref_cap_perim
from hypcap.experiments import DEFAULT_POLYGON_ROWS, DEFAULT_TRIANGLE_ROWS, INCONCLUSIVE
from hypcap.hypgeom import (
    HypPolygon,
    hyp_midpoint,
    mobius,
    polygon_measures,
    polygon_perimeter,
    regular_polygon,
)
from hypcap.specfun import mu

# first-level solves only: the needle triangles 2, 6 and 10 are left out
REDUCED_RUNS = {
    "triangle_conjecture": lambda: experiments.run_triangle_conjecture(
        rows=[DEFAULT_TRIANGLE_ROWS[0], DEFAULT_TRIANGLE_ROWS[3]]
    ),
    "polygon_conjecture": lambda: experiments.run_polygon_conjecture(
        polygons=DEFAULT_POLYGON_ROWS[:2]
    ),
    "regular_table": lambda: experiments.run_regular_table(
        m_list=[3, 4], r_list=[0.3, 0.6]
    ),
    "sequence_area": lambda: experiments.run_sequence_area(m_range=range(3, 6)),
    "sequence_perim": lambda: experiments.run_sequence_perim(m_range=range(3, 6)),
    # at s = 1e-4 and 1e-6 the area form's mu argument is within 1.5e-8 of 1
    "triangle_bounds": lambda: experiments.run_triangle_bounds(s_grid=[0.3, 0.7, 1e-4, 1e-6]),
    "f1f2": lambda: experiments.run_f1f2(c_grid=[0.1, 1.0, 10.0]),
}

SOLVING_DRIVERS = [name for name in REDUCED_RUNS if name != "f1f2"]

# the verdict keys of each row of a reduced run (a sequence's first row
# has no predecessor to compare with), and the capacities the benchmark
# reads from every row that solves
DISKS = {"within_perimeter_bound", "above_area_bound"}
SOLVED = {"converged"} | DISKS
PAIR = {"both_converged"} | DISKS
ROW_SCHEMA = {
    "triangle_conjecture": (
        [PAIR | {"capacity_not_below_equilateral", "equal_area"}] * 2, {"cap_T", "cap_T0"}
    ),
    "polygon_conjecture": (
        [PAIR | {"capacity_not_above_regular", "equal_perimeter"}] * 2, {"cap_P", "cap_P0"}
    ),
    "regular_table": ([SOLVED] * 4 + [{"increasing_in_m", "increasing_in_r"}], {"capacity"}),
    "sequence_area": ([SOLVED] + [SOLVED | {"decreasing_in_m"}] * 2, {"capacity"}),
    "sequence_perim": ([SOLVED] + [SOLVED | {"increasing_in_m"}] * 2, {"capacity"}),
    "triangle_bounds": ([SOLVED | {"sandwich", "rewrites_agree"}] * 4, {"capacity"}),
    "f1f2": ([{"disk_beats_slit", "disk_within_half_pi_of_slit"}] * 3, set()),
}

# verdicts that compare no solved capacity
NON_CAPACITY_VERDICTS = {
    "converged", "both_converged", "equal_area", "equal_perimeter", "rewrites_agree"
}

# each conjecture family: its row-id prefix, its letter X, the measure
# its competitor matches and its conjecture verdict
CONJECTURES = {
    "triangle_conjecture": ("triangle_", "T", "area", "capacity_not_below_equilateral"),
    "polygon_conjecture": ("polygon_", "P", "perimeter", "capacity_not_above_regular"),
}

# each conjecture driver beside a degenerate row, rows with a vertex that
# is not a point of the disk (None and a string that complex() rejects,
# strings that it parses, and a bool it would take as the vertex 0) with
# the vertex each row error names, and a good row
DEGENERATE_RUNS = {
    "triangle_conjecture": (
        experiments.run_triangle_conjecture,
        # three points on a diameter: recentred, every side is radial
        (0.1, 0.2, 0.3),
        [
            ((None, 0.1, 0.2), 0),
            (("abc", 0.1, 0.2), 0),
            (("0.6", "0.2-0.5j", "-0.3-0.5j"), 0),
            ((0.6, 0.2 - 0.5j, False), 2),
        ],
        DEFAULT_TRIANGLE_ROWS[3],
        "triangle_{i}",
    ),
    "polygon_conjecture": (
        experiments.run_polygon_conjecture,
        # consecutive vertices coincide
        [0.5, 0.5, 0.3j, -0.5],
        [
            ([None, 0.5j, -0.5, -0.5j], 0),
            (["abc", 0.5j, -0.5, -0.5j], 0),
            (["0.5", "0.5j", "-0.5", "-0.5j"], 0),
            ([0.5, 0.5j, False, -0.5j], 2),
        ],
        DEFAULT_POLYGON_ROWS[0],
        "polygon_m?_{i}",
    ),
}
# rows with no length, so no vertex list: each is a row error too
UNLISTED_ROWS = (None, 5, 0.5j)


@pytest.mark.parametrize("name", list(REDUCED_RUNS))
def test_driver_rows_pass(name):
    rows = REDUCED_RUNS[name]()
    verdict_keys, capacities = ROW_SCHEMA[name]
    assert [set(row.verdicts) for row in rows] == verdict_keys
    for row in rows:
        assert row.error is None, (row.id, row.error)
        assert all(v is not False for v in row.verdicts.values()), (row.id, row.verdicts)
        if row.verdicts.keys() & {"converged", "both_converged"}:
            assert capacities <= row.values.keys(), (row.id, row.values)
        # every stored capacity has its residual and its capacity error:
        # capacity -> residual and error, cap_T0 -> residual_T0 and error_T0
        for key in filter(re.compile(r"cap(acity|_\w+)$").match, row.values):
            for name in ("residual", "error"):
                assert re.sub("^cap(acity)?", name, key) in row.values, (row.id, key, name)


def test_area_sequence_beyond_pi():
    # areas up to (m - 2) pi exist from m = 4 on; regular_radius_from_area
    # alone checks c, so a bad c raises at the first m that cannot take it
    rows = experiments.run_sequence_area(4.0, range(4, 8))
    assert [row.error for row in rows] == [None] * 4
    assert [row.verdicts.get("decreasing_in_m") for row in rows] == [None, True, True, True]
    with pytest.raises(ValueError, match=r"area 4.0 outside the attainable range \(0, 3.14"):
        experiments.run_sequence_area(4.0)


@pytest.mark.parametrize("name", list(DEGENERATE_RUNS))
def test_degenerate_row_recorded_as_error(name):
    run, degenerate_row, malformed_rows, good_row, unlisted_id = DEGENERATE_RUNS[name]
    rows = [degenerate_row, *(row for row, _ in malformed_rows), *UNLISTED_ROWS, good_row]
    degenerate, *bad_rows, good = run(rows)
    malformed, unlisted = bad_rows[: len(malformed_rows)], bad_rows[len(malformed_rows) :]
    for bad in (degenerate, *bad_rows):
        assert bad.error and not bad.passed()
    # a vertex that is not a point is named, as from_vertices names it,
    # and the row keeps its vertices as given
    for bad, (row, k) in zip(malformed, malformed_rows):
        assert bad.error == f"vertex {k} {row[k]!r} is not inside the unit disk"
        assert bad.inputs == {"vertices": list(row)}
    # a row with no length is not a vertex list: its id has no vertex
    # count, and it keeps the row as given
    for i, (bad, row) in enumerate(zip(unlisted, UNLISTED_ROWS), start=len(malformed_rows) + 2):
        assert bad.id == unlisted_id.format(i=i)
        assert bad.error == f"row {row!r} is not a vertex list"
        assert bad.inputs == {"vertices": row}
    # the good row solves, and keeps each vertex as [re, im]
    assert good.error is None and good.passed()
    assert good.inputs == {"vertices": [[z.real, z.imag] for z in map(complex, good_row)]}


def test_triangle_row_of_other_than_three_vertices():
    # a 2- or 4-vertex triangle row is a row error that names its vertex
    # count; the good row beside them solves
    rows = [[0.5, -0.5j], [0.5, 0.5j, -0.5, -0.5j], DEFAULT_TRIANGLE_ROWS[3]]
    *bad, good = experiments.run_triangle_conjecture(rows)
    for row, count in zip(bad, (2, 4)):
        assert row.error == f"triangle row needs 3 vertices, got {count}" and not row.passed()
    assert good.error is None and good.passed()


def test_solver_error_recorded_as_row_error(monkeypatch):
    # a NaN in the first Nystrom matrix fails its row alone: the same
    # triangle in the next row solves as usual
    kernel, calls = capsolve._kernel, []

    def poisoned_once(d):
        A = kernel(d)
        if not calls:
            A[0, 0] = math.nan
        calls.append(d)
        return A

    monkeypatch.setattr(capsolve, "_kernel", poisoned_once)
    bad, good = experiments.run_triangle_conjecture([DEFAULT_TRIANGLE_ROWS[0]] * 2)
    assert "non-finite entries in the Nystrom matrix" in bad.error and not bad.passed()
    assert good.error is None and good.passed()


@pytest.mark.parametrize("name", ["triangle_conjecture", "polygon_conjecture"])
def test_unexpected_exception_propagates(name, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the solver")

    monkeypatch.setattr(experiments, "cap_polygon", broken)
    with pytest.raises(TypeError, match="bug in the solver"):
        REDUCED_RUNS[name]()


@pytest.mark.parametrize("name", SOLVING_DRIVERS)
def test_capacity_verdicts_inconclusive_within_slack(name, monkeypatch):
    solve = experiments.cap_polygon

    def unresolved(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), capacity_error=1e3)

    monkeypatch.setattr(experiments, "cap_polygon", unresolved)
    for row in REDUCED_RUNS[name]():
        compared = {k: v for k, v in row.verdicts.items() if k not in NON_CAPACITY_VERDICTS}
        assert compared, row.id
        assert all(v == INCONCLUSIVE for v in compared.values()), (row.id, compared)


@pytest.mark.parametrize("name", SOLVING_DRIVERS)
def test_solve_fixed_by_plate_alone(name, monkeypatch):
    # every solve runs at the solver's default tolerance, and every bound
    # a row checks comes from the plate that row solved: its
    # equal-perimeter and equal-area disks, and a bounds row's perimeter
    # and area forms at the plate's measured u and v
    solve, calls = experiments.cap_polygon, []
    signature = inspect.signature(solve)

    def recorded(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        calls.append((call.arguments["poly"], call.arguments["tol"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "cap_polygon", recorded)
    rows = REDUCED_RUNS[name]()
    assert calls and all(tol == DEFAULT_TOL_POLYGON for _, tol in calls)
    # a row solves its plate first, then a conjecture row its competitor,
    # the regular m-gon of the plate's measured area or perimeter
    plates = iter(plate for plate, _ in calls)
    for row in rows:
        if "perimeter_bound" not in row.values:
            continue
        plate = next(plates)
        if name in CONJECTURES:
            _, x, measure, _ = CONJECTURES[name]
            c = getattr(polygon_measures(plate), measure)
            assert row.values[f"{measure}_{x}"] == c, row.id
            regular = regular_polygon(len(plate.vertices), row.values["regular_radius"])
            assert next(plates).vertices == regular.vertices, row.id
        assert row.values["perimeter_bound"] == ref_cap_perim(polygon_perimeter(plate)), row.id
        pm = polygon_measures(plate)
        assert row.values["area_bound"] == ref_cap_area(pm.area), row.id
        if name == "triangle_bounds":
            x, v = pm.perimeter / 6, pm.area
            d = 2 * math.sin(v / 12) ** 2 + math.sqrt(3) * math.sin(v / 6)
            upper_perim = 3 * math.pi / mu(math.tanh(x), 1 / math.cosh(x))
            r_prime = 2 * math.sin((math.pi - v) / 6)
            upper_area = (12 / math.pi) * mu(r_prime, math.sqrt(d * (2 - d)))
            assert row.values["upper_perim_form"] == upper_perim, row.id
            assert row.values["upper_area_form"] == upper_area, row.id
    assert next(plates, None) is None


def test_equal_area_competitor_of_a_small_triangle():
    # triangle_1 scaled by 1e-5 has area 5.0e-11, below any absolute
    # tolerance worth having; T0 comes from that area itself
    (row,) = experiments.run_triangle_conjecture(
        rows=[tuple(1e-5 * v for v in DEFAULT_TRIANGLE_ROWS[0])]
    )
    area = row.values["area_T"]
    assert row.verdicts["equal_area"] is True
    assert abs(row.values["area_T0"] - area) <= 1e-12 * area


def test_small_triangles_obey_the_planar_theorem():
    # scaled by 0.03 (areas 4.7e-5 to 3.8e-3) the published triangles are
    # nearly Euclidean, where the equilateral triangle of equal area has
    # the least capacity by Polya and Szego's theorem: every row must be
    # decisive and True (the closest, triangle_5, about 8x its slack)
    rows = experiments.run_triangle_conjecture(
        rows=[tuple(0.03 * v for v in vs) for vs in DEFAULT_TRIANGLE_ROWS]
    )
    assert len(rows) == 10
    for row in rows:
        assert row.error is None, (row.id, row.error)
        assert row.verdicts["capacity_not_below_equilateral"] is True, (row.id, row.values)
        assert row.verdicts["both_converged"] is True, row.id


@settings(max_examples=10)
@given(
    radii=st.tuples(*[st.floats(0.3, 0.7)] * 3),
    jitter=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    shift=st.floats(0.0, 0.6),
    shift_angle=st.floats(0.0, 2.0 * math.pi),
    turn=st.floats(0.0, 2.0 * math.pi),
)
def test_recentring_ignores_where_the_triangle_sits(radii, jitter, shift, shift_angle, turn):
    # a disk automorphism and a rotation of the input move the recentred
    # triangle only by a rotation about 0: same vertex moduli, same solve
    vertices = [
        rho * cmath.exp(1j * (2.0 * math.pi * k / 3 + dt))
        for k, (rho, dt) in enumerate(zip(radii, jitter))
    ]
    a = cmath.rect(shift, shift_angle)
    moved = [cmath.exp(1j * turn) * mobius(a, v) for v in vertices]
    here = experiments.recenter_triangle(*vertices)
    there = experiments.recenter_triangle(*moved)
    np.testing.assert_allclose(
        sorted(map(abs, here.vertices)), sorted(map(abs, there.vertices)), rtol=0, atol=1e-12
    )
    cap_here, cap_there = cap_polygon(here).capacity, cap_polygon(there).capacity
    assert abs(cap_there - cap_here) <= 1e-12 * cap_here


def test_isosceles_rows_fold():
    # the seven isosceles published triples are recentred onto a plate
    # with a mirror axis through 0, which the solver folds; the three
    # scalene ones are not, and keep a = mid(mid(v1, v2), v3) to the bit
    folds = [
        i + 1
        for i, vs in enumerate(DEFAULT_TRIANGLE_ROWS)
        if BoundarySet.from_polygon(experiments.recenter_triangle(*vs)).mirror is not None
    ]
    assert folds == [3, 4, 5, 7, 8, 9, 10]
    for i in (1, 2, 6):
        vs = DEFAULT_TRIANGLE_ROWS[i - 1]
        a = hyp_midpoint(hyp_midpoint(vs[0], vs[1]), vs[2])
        want = HypPolygon.from_vertices([mobius(a, v) for v in vs])
        assert experiments.recenter_triangle(*vs).vertices == want.vertices


@pytest.fixture(scope="module")
def published_rows():
    return [row for name in SOLVING_DRIVERS for row in getattr(experiments, f"run_{name}")()]


def _slack(*solves):
    """The drivers' slack rule applied to stored (capacity, error) pairs."""
    return experiments._slack(
        *(SimpleNamespace(capacity=cap, capacity_error=err) for cap, err in solves)
    )


def _verdict(larger, smaller, *solves):
    """Three-valued larger >= smaller: True or False beyond the slack of
    the stored (capacity, error) pairs of the solves compared, else
    inconclusive."""
    if abs(larger - smaller) <= _slack(*solves):
        return INCONCLUSIVE
    return bool(larger > smaller)


def _capacity_verdicts(row, rows_by_id, previous):
    """Every capacity verdict of a published row, recomputed from the
    values and capacity errors stored in the rows alone."""
    v = row.values
    if row.id.startswith("triangle_"):
        cap, own = v["cap_T"], (v["cap_T"], v["error_T"])
        out = {
            "capacity_not_below_equilateral": _verdict(
                cap, v["cap_T0"], own, (v["cap_T0"], v["error_T0"])
            )
        }
    elif row.id.startswith("polygon_"):
        cap, own = v["cap_P"], (v["cap_P"], v["error_P"])
        out = {
            "capacity_not_above_regular": _verdict(
                v["cap_P0"], cap, own, (v["cap_P0"], v["error_P0"])
            )
        }
    elif row.id == "table_monotonicity":
        ms, rs = row.inputs["m"], row.inputs["r"]
        cell = {(r, m): rows_by_id[f"table_r{r:g}_m{m}"] for r in rs for m in ms}

        def increasing(pairs):
            return experiments._all_hold(
                _verdict(
                    b.values["capacity"],
                    a.values["capacity"],
                    *((c.values["capacity"], c.values["error"]) for c in (a, b)),
                )
                for a, b in pairs
            )

        return {
            "increasing_in_m": increasing(
                (cell[r, m1], cell[r, m2]) for r in rs for m1, m2 in zip(ms, ms[1:])
            ),
            "increasing_in_r": increasing(
                (cell[r1, m], cell[r2, m]) for m in ms for r1, r2 in zip(rs, rs[1:])
            ),
        }
    else:
        cap, own = v["capacity"], (v["capacity"], v["error"])
        out = {}
        if row.id.startswith("bounds_"):
            out["sandwich"] = experiments._all_hold(
                [_verdict(cap, v["lower"], own), _verdict(v["upper"], cap, own)]
            )
        if "previous_capacity" in v:
            pair = (own, (previous.values["capacity"], previous.values["error"]))
            if row.id.startswith("seq_area_"):
                out["decreasing_in_m"] = _verdict(v["previous_capacity"], cap, *pair)
            else:
                out["increasing_in_m"] = _verdict(cap, v["previous_capacity"], *pair)
    out["within_perimeter_bound"] = _verdict(v["perimeter_bound"], cap, own)
    out["above_area_bound"] = _verdict(cap, v["area_bound"], own)
    return out


def test_published_verdicts_recompute_from_rows(published_rows):
    rows_by_id = {row.id: row for row in published_rows}
    for previous, row in zip([None, *published_rows], published_rows):
        stored = {k: v for k, v in row.verdicts.items() if k not in NON_CAPACITY_VERDICTS}
        assert _capacity_verdicts(row, rows_by_id, previous) == stored, row.id


def test_competitors_share_the_measure(published_rows):
    # the regular competitor is rebuilt from its stored radius alone, and
    # has the measure the row stores for its plate
    for prefix, x, measure, _ in CONJECTURES.values():
        conjecture_rows = [row for row in published_rows if row.id.startswith(prefix)]
        assert conjecture_rows
        for row in conjecture_rows:
            v = row.values
            regular = regular_polygon(len(row.inputs["vertices"]), v["regular_radius"])
            c = getattr(polygon_measures(regular), measure)
            assert c == pytest.approx(v[f"{measure}_{x}"], rel=1e-14), row.id
            assert row.verdicts[f"equal_{measure}"] is True, row.id


@pytest.mark.parametrize(
    "name, m, r",
    [("triangle_conjecture", 3, 0.3), ("triangle_conjecture", 3, 0.8),
     ("polygon_conjecture", 3, 0.3), ("polygon_conjecture", 3, 0.8),
     ("polygon_conjecture", 4, 0.6), ("polygon_conjecture", 8, 0.9)],
)
def test_regular_plate_is_its_own_competitor(name, m, r):
    # the comparison's zero point: a regular plate's competitor is itself
    # (a recentred triangle is moved by an isometry), so the capacities
    # differ by less than the slack
    _, x, measure, key = CONJECTURES[name]
    (row,) = getattr(experiments, f"run_{name}")([regular_polygon(m, r).vertices])
    assert row.error is None, row.error
    assert row.values["regular_radius"] == pytest.approx(r, rel=1e-14)
    assert row.verdicts[f"equal_{measure}"] is True
    assert row.verdicts[key] == INCONCLUSIVE


def test_published_sweep(published_rows):
    inconclusive = set()
    for row in published_rows:
        assert row.error is None, (row.id, row.error)
        assert all(v is not False for v in row.verdicts.values()), (row.id, row.verdicts)
        for key in ("converged", "both_converged"):
            assert row.verdicts.get(key, True) is True, (row.id, key)
        # converged means a capacity error of at most 1e-6 of the capacity
        for key in (k for k in row.values if k.startswith("error")):
            cap = row.values["capacity" if key == "error" else "cap" + key[len("error") :]]
            assert row.values[key] <= 1e-6 * cap, (row.id, key, row.values[key] / cap)
        if INCONCLUSIVE in row.verdicts.values():
            inconclusive.add(row.id)
    # triangle_5 differs from its competitor by less than the slack
    # (ROADMAP item 3); polygon_m4_2, inconclusive under the residual
    # slack, is decided under the capacity-error slack
    assert inconclusive <= {"triangle_5"}
