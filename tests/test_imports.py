"""The package's import graph stays numpy plus scipy.linalg: importing
every module must pull in none of scipy's heavier subpackages, whose
import time dominates a fresh process's first solve.  Each module's
__all__ is exactly right both ways: every name in it exists, and every
public function or class the module defines is in it.  Every span the
benchmark's tracer (perfbench/tracing.py) records still has a callable
of this checkout to wrap, so a rename cannot turn its metrics null, and
a traced solve gives every per-layer metric a finite value."""

import importlib
import inspect
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hypcap
from hypcap import capsolve
from hypcap.experiments import DEFAULT_TRIANGLE_ROWS, recenter_triangle
from hypcap.hypgeom import regular_polygon

MODULES = (
    "hypcap.capsolve",
    "hypcap.condenser",
    "hypcap.experiments",
    "hypcap.hypgeom",
    "hypcap.specfun",
)
HEAVY = ("scipy.optimize", "scipy.special", "scipy.sparse", "scipy.fft")


def test_package_imports_no_heavy_scipy():
    src = str(Path(hypcap.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        f"import {', '.join(MODULES)}\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert not defined - set(module.__all__), sorted(defined - set(module.__all__))


def _tracing(monkeypatch) -> types.ModuleType:
    """perfbench/tracing.py, run from its source, not imported, so that
    nothing is written beside it; its dataclasses need it in sys.modules."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)
    exec(compile(path.read_text(), str(path), "exec"), vars(tracing))
    return tracing


def test_tracer_targets_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    resolved = {}
    for name, _, module, attr_path in tracing.TARGETS:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        resolved[name] = resolved.get(name, False) or callable(owner)
    assert all(resolved.values()), sorted(n for n, ok in resolved.items() if not ok)


def test_traced_solves_give_finite_metrics(monkeypatch):
    # the tracer's contract with the solver: every level runs one
    # scipy.linalg.lstsq, and a pass with a one-level solve (the 3-gon,
    # kept at its first rung) and a refining one (the recentred needle
    # triangle_2: the first rung, the start and one sqrt 2 step)
    # gives every per-layer metric a finite number, none null.  The
    # solves go through the module attribute, which the tracer patches
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracer.installed():
        capsolve.cap_polygon(regular_polygon(3, 0.5))
        capsolve.cap_polygon(recenter_triangle(*DEFAULT_TRIANGLE_ROWS[1]))
    metrics = tracing.layer_metrics(tracer.spans, tracer.installed_names)
    bad = {k: v for k, v in metrics.items() if v is None or not math.isfinite(v)}
    assert not bad, bad
    assert (metrics["capsolve.solves"], metrics["capsolve.levels"]) == (2, 4)
    assert metrics["capsolve.lstsq_calls"] == metrics["capsolve.levels"]
