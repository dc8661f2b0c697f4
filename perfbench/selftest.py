"""Tests of the benchmark itself, at tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hypcap import capsolve, experiments, hypgeom  # noqa: E402
from tracing import Span  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["solves"]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few cheap solves."""
    monkeypatch.setattr(workloads, "TABLE_M", (3,))
    monkeypatch.setattr(workloads, "TABLE_R", (0.1, 0.5))
    monkeypatch.setattr(workloads, "SEQ_M", (4,))
    monkeypatch.setattr(workloads, "TRIANGLES", {1: workloads.TRIANGLES[1]})
    monkeypatch.setattr(workloads, "DISKS_PER_PASS", 5)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "DISK_WARM_UP_S", 0.0)
    monkeypatch.setattr(run, "OUT", HERE / "out" / "selftest")
    (HERE / "out" / "selftest").mkdir(parents=True, exist_ok=True)


def run_once(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_emits_every_metric(tiny, workload, trace):
    result = run_once(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {k: v[0] for k, v in run.PER_LAYER.items()} if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name]
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in names)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"disks"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()
    }


def inputs(w) -> list:
    calls = [(c.name, repr(c.kwargs)) for c in w.calls]
    plates = [repr(s.plate) for s in w.next_solves()]
    return calls + plates


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_reproduce_and_vary(name):
    a = workloads.build(name, 5, REFERENCE)
    b = workloads.build(name, 5, REFERENCE)
    c = workloads.build(name, 6, REFERENCE)
    assert inputs(a) == inputs(b)
    assert inputs(a) != inputs(c)


def test_default_seed_is_published():
    w = workloads.build("irregular", workloads.DEFAULT_SEED, REFERENCE)
    for (i, vs), given in zip(workloads.TRIANGLES.items(), w.calls[0].kwargs["rows"]):
        assert tuple(map(complex, experiments.DEFAULT_TRIANGLE_ROWS[i - 1])) == given
    for (i, vs), given in zip(workloads.POLYGONS.items(), w.calls[1].kwargs["polygons"]):
        assert list(map(complex, experiments.DEFAULT_POLYGON_ROWS[i - 1])) == given
    r = workloads.build("regular", workloads.DEFAULT_SEED, REFERENCE)
    assert r.calls[0].kwargs["r_list"] == list(workloads.TABLE_R)
    assert r.calls[2].kwargs["c"] == workloads.SEQ_C


def test_jitter_keeps_shape_class():
    base = workloads.build("irregular", workloads.DEFAULT_SEED, REFERENCE)
    for seed in (1, 2):
        w = workloads.build("irregular", seed, REFERENCE)
        for v0, v1 in zip(base.calls[0].kwargs["rows"], w.calls[0].kwargs["rows"]):
            a0 = sorted(hypgeom.triangle_measures(*v0).angles)
            a1 = sorted(hypgeom.triangle_measures(*v1).angles)
            assert a1 == pytest.approx(a0, rel=1e-9)  # a needle stays a needle
        for p0, p1 in zip(base.calls[1].kwargs["polygons"], w.calls[1].kwargs["polygons"]):
            q0, q1 = hypgeom.HypPolygon.from_vertices(p0), hypgeom.HypPolygon.from_vertices(p1)
            assert hypgeom.polygon_perimeter(q1) == pytest.approx(hypgeom.polygon_perimeter(q0))
        for s in w.solves:  # every seed's plates keep their reference
            assert (s.ref is None) == (REFERENCE[s.key]["capacity"] is None)
        r = workloads.build("regular", seed, REFERENCE)
        for r1, r0 in zip(r.calls[0].kwargs["r_list"], workloads.TABLE_R):
            assert round((r0 - r1) / workloads.RADIUS_STEP, 9) in (1, 2)
        assert all(s.ref is not None for s in r.solves)


def test_reference_anchors_and_coverage():
    doc = json.loads((HERE / "reference.json").read_text())
    for a in doc["anchors"]:
        assert a["rel_diff"] < 1e-8
    for key, *_ in workloads.regular_variants():
        assert REFERENCE[key]["capacity"] is not None
    assert REFERENCE["triangle_2 T"]["capacity"] is None  # the needle


def tree():
    """driver [0, 20] > solve [1, 19] > level [1, 9] (kernel [1, 3],
    lstsq [3, 7]) and level [9, 19] (kernel [9, 10], lstsq [10, 16],
    kernel [16, 18]); a polygon build [19.5, 20] after the solve."""
    spans = [
        Span("experiments.run_regular_table", "experiments", 0.0, 20.0),
        Span("capsolve.cap_polygon", "capsolve", 1.0, 19.0, parent=0, solve=0),
        Span("capsolve.level", "capsolve", 1.0, 9.0, parent=1, solve=0),
        Span("capsolve.kernel", "capsolve", 1.0, 3.0, parent=2, solve=0),
        Span("capsolve.lstsq", "capsolve", 3.0, 7.0, parent=2, solve=0,
             attrs={"rows": 100, "cols": 10, "rank": 9}),
        Span("capsolve.level", "capsolve", 9.0, 19.0, parent=1, solve=0),
        Span("capsolve.kernel", "capsolve", 9.0, 10.0, parent=5, solve=0),
        Span("capsolve.lstsq", "capsolve", 10.0, 16.0, parent=5, solve=0,
             attrs={"rows": 200, "cols": 20, "rank": 20}),
        Span("capsolve.kernel", "capsolve", 16.0, 18.0, parent=5, solve=0),
        Span("hypgeom.polygon_build", "hypgeom", 19.5, 20.0, parent=0),
    ]
    return spans


def test_self_time_arithmetic():
    spans = tree()
    assert tracing.self_times(spans) == pytest.approx(
        [20 - 18 - 0.5, 0, 8 - 6, 2, 4, 10 - 9, 1, 6, 2, 0.5]
    )
    # overlapping children are covered once
    assert tracing.covered([(1, 4), (3, 6), (5, 5.5)], 0, 10) == pytest.approx(5)
    assert tracing.covered([(-1, 2), (8, 12)], 0, 10) == pytest.approx(4)


def test_layer_metrics_on_synthetic_tree():
    spans = tree()
    names = {name for name, *_ in tracing.TARGETS}
    m = tracing.layer_metrics(spans, names)
    assert m["capsolve.solves"] == 1
    assert m["capsolve.levels"] == 2
    assert m["capsolve.useful_level_ratio"] == 0.5
    assert m["capsolve.wasted_level_s"] == pytest.approx(8)
    assert m["capsolve.kernel_s"] == pytest.approx(3)
    assert m["capsolve.check_s"] == pytest.approx((9 - 7) + (19 - 16))
    assert m["capsolve.lstsq_s"] == pytest.approx(10)
    assert m["capsolve.lstsq_calls"] == 2
    flop = 2 * 100 * 10**2 - 2 / 3 * 10**3 + 2 * 200 * 20**2 - 2 / 3 * 20**3
    assert m["capsolve.lstsq_gflop"] == pytest.approx(flop / 1e9)
    assert m["capsolve.rank_deficit"] == 1
    assert m["capsolve.max_rows"] == 200 and m["capsolve.max_cols"] == 20
    assert m["capsolve.matrix_mb"] == pytest.approx(8 * (1000 + 4000) / 1e6)
    assert m["experiments.driver_self_s"] == pytest.approx(20 - 18)
    assert m["hypgeom.polygon_builds"] == 1
    assert m["layer.capsolve.self_s"] == pytest.approx(18)
    # a wrapper whose target a refactor removed leaves its metrics absent
    m = tracing.layer_metrics(spans, names - {"capsolve.kernel", "capsolve.level"})
    assert m["capsolve.kernel_s"] is None and m["capsolve.levels"] is None
    assert m["capsolve.lstsq_s"] == pytest.approx(10)


def test_tracer_restores_and_skips_missing(monkeypatch):
    originals = (capsolve.cap_polygon, experiments.cap_polygon, capsolve.BoundarySet.from_polygon)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("capsolve.gone", "capsolve", "hypcap.capsolve", "_no_such_function"),
    ))
    tracer = tracing.Tracer()
    plate = hypgeom.regular_polygon(3, 0.3)
    with tracer.installed():
        assert experiments.cap_polygon is not originals[1]
        capsolve.cap_polygon(plate)
    assert "capsolve.gone" not in tracer.installed_names
    assert (capsolve.cap_polygon, experiments.cap_polygon,
            capsolve.BoundarySet.from_polygon) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "capsolve.cap_polygon" and "capsolve.lstsq" in names
    assert {s.solve for s in tracer.spans if s.name.startswith("capsolve")} == {0}


def test_check_rows_counts_claims_not_convergence():
    solve = workloads.Solve("k", None, 2e-3, ref=10.0, rel_tol=1e-3)
    call = workloads.DriverCall("run_x", {}, ((("capacity", "k"),), ()))

    def row(verdicts, cap=10.0):
        return experiments.ExperimentRow(id="r", inputs={}, values={"capacity": cap},
                                         verdicts=verdicts)

    ok = row({"converged": False, "x": experiments.INCONCLUSIVE})
    assert workloads.check_rows(call, [ok, row({})], {"k": solve}) == [("k", 10.0, True)]
    assert not workloads.check_rows(call, [row({"x": False}), row({})], {"k": solve})[0][2]
    assert not workloads.check_rows(call, [ok, row({"mono": False})], {"k": solve})[0][2]
    assert not workloads.check_rows(call, [row({}, cap=10.1), row({})], {"k": solve})[0][2]
    assert not workloads.check_rows(call, [ok], {"k": solve})[0][2]
    assert math.isnan(workloads.check_rows(call, [], {"k": solve})[0][1])
