"""Spans around the solver's layers, recorded from outside the program.

Tracer.installed() swaps each target callable for a wrapper that
records a span (name, start, end, parent, top-level solve id) and swaps
the originals back on exit.  Every module of the package that holds the
same function object under the same name is patched, so names imported
with ``from .capsolve import cap_polygon`` are traced too.  A target
that no longer exists is skipped, and the metrics that need it are
reported as absent (None).

Layers are the package modules: experiments, hypgeom, capsolve (with the
least squares it calls) and condenser/specfun.  A span's self time is
its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

PACKAGE_MODULES = (
    "hypcap.experiments",
    "hypcap.capsolve",
    "hypcap.hypgeom",
    "hypcap.condenser",
    "hypcap.specfun",
)

DRIVERS = (
    "run_regular_table",
    "run_triangle_bounds",
    "run_sequence_perim",
    "run_triangle_conjecture",
    "run_polygon_conjecture",
)

# (span name, layer, module, attribute path); the private names are
# optional by nature, and any target may disappear in a refactor
TARGETS = (
    *((f"experiments.{d}", "experiments", "hypcap.experiments", d) for d in DRIVERS),
    ("experiments.recenter_triangle", "experiments", "hypcap.experiments", "recenter_triangle"),
    ("capsolve.cap_polygon", "capsolve", "hypcap.capsolve", "cap_polygon"),
    ("capsolve.cap_disk", "capsolve", "hypcap.capsolve", "cap_disk"),
    ("capsolve.level", "capsolve", "hypcap.capsolve", "_solve_once"),
    ("capsolve.discretize", "capsolve", "hypcap.capsolve", "discretize"),
    ("capsolve.kernel", "capsolve", "hypcap.capsolve", "_kernel"),
    ("capsolve.boundary", "capsolve", "hypcap.capsolve", "BoundarySet.from_polygon"),
    ("capsolve.boundary", "capsolve", "hypcap.capsolve", "BoundarySet.from_hyp_disk"),
    ("capsolve.boundary", "capsolve", "hypcap.capsolve", "BoundarySet.from_euclid_disk"),
    ("capsolve.lstsq", "capsolve", "scipy.linalg", "lstsq"),
    ("hypgeom.polygon_build", "hypgeom", "hypcap.hypgeom", "HypPolygon.from_vertices"),
    ("hypgeom.polygon_build", "hypgeom", "hypcap.hypgeom", "regular_polygon"),
    ("condenser.ref", "condenser", "hypcap.condenser", "cap_hyp_disk"),
    ("condenser.ref", "condenser", "hypcap.condenser", "ref_cap_perim"),
    ("condenser.ref", "condenser", "hypcap.condenser", "ref_cap_area"),
    ("condenser.ref", "condenser", "hypcap.condenser", "triangle_bounds_from_s"),
)

TOP_LEVEL = ("capsolve.cap_polygon", "capsolve.cap_disk")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    solve: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.installed_names: set[str] = set()
        self._stack: list[int] = []
        self._next_solve = 0

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            solve = self.spans[parent].solve if parent is not None else None
            if solve is None and name in TOP_LEVEL:
                solve = self._next_solve
                self._next_solve += 1
            idx = len(self.spans)
            span = Span(name, layer, time.perf_counter(), parent=parent, solve=solve)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name == "capsolve.lstsq":
                a = args[0] if args else kwargs["a"]
                rows, cols = a.shape
                span.attrs.update(rows=int(rows), cols=int(cols), rank=int(result[2]))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every available target; restore all on exit."""
        undo = []
        self.installed_names = set()
        try:
            for name, layer, module, path in TARGETS:
                patched = _patch(module, path, lambda fn: self._wrap(name, layer, fn))
                if patched:
                    undo += patched
                    self.installed_names.add(name)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _patch(module: str, path: str, make_wrapper) -> list:
    """Replace module.path (a function or a class's staticmethod) and
    every package-level alias of the same function; returns undo records."""
    try:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[attr] if outer else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return []
    if isinstance(raw, staticmethod):
        wrapper = make_wrapper(raw.__func__)
        setattr(owner, attr, staticmethod(wrapper))
        return [(owner, attr, raw)]
    wrapper = make_wrapper(raw)
    undo = [(owner, attr, raw)]
    setattr(owner, attr, wrapper)
    for alias_module in PACKAGE_MODULES:
        mod = importlib.import_module(alias_module)
        if mod is not owner and getattr(mod, attr, None) is raw:
            undo.append((mod, attr, raw))
            setattr(mod, attr, wrapper)
    return undo


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _children(spans) -> dict:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    kids = _children(spans)
    return [
        s.duration - covered([(spans[k].start, spans[k].end) for k in kids.get(i, ())], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _outermost(spans, names) -> list[int]:
    """Spans named in names with no ancestor named in names."""
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def layer_metrics(spans, installed: set) -> dict:
    """Per-layer metrics of one pass; None marks a metric whose spans
    could not be recorded because the target no longer exists."""
    kids = _children(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def have(*names):
        return all(n in installed for n in names)

    def total(name):
        return sum(spans[i].duration for i in _outermost(spans, {name})) if have(name) else None

    m: dict[str, float | None] = {}
    solves = [spans[i] for i in _outermost(spans, set(TOP_LEVEL))]
    m["capsolve.solves"] = len(solves)

    lstsq = by_name.get("capsolve.lstsq", [])
    if have("capsolve.lstsq"):
        t = sum(s.duration for s in lstsq)
        flop = sum(2.0 * s.attrs["rows"] * s.attrs["cols"] ** 2 - 2.0 / 3.0 * s.attrs["cols"] ** 3 for s in lstsq)
        m["capsolve.lstsq_s"] = t
        m["capsolve.lstsq_calls"] = len(lstsq)
        m["capsolve.lstsq_gflop"] = flop / 1e9
        m["capsolve.lstsq_gflops"] = flop / 1e9 / t if t > 0 else None
        m["capsolve.max_rows"] = max((s.attrs["rows"] for s in lstsq), default=0)
        m["capsolve.max_cols"] = max((s.attrs["cols"] for s in lstsq), default=0)
        m["capsolve.matrix_mb"] = sum(8.0 * s.attrs["rows"] * s.attrs["cols"] for s in lstsq) / 1e6
        m["capsolve.rank_deficit"] = sum(s.attrs["cols"] - s.attrs["rank"] for s in lstsq)
    else:
        for k in ("lstsq_s", "lstsq_calls", "lstsq_gflop", "lstsq_gflops", "max_rows",
                  "max_cols", "matrix_mb", "rank_deficit"):
            m[f"capsolve.{k}"] = None

    # the collocation kernel is built before the level's least squares;
    # everything the level does after it is check-grid evaluation
    kernel_s = check_s = None
    if have("capsolve.lstsq", "capsolve.kernel"):
        kernel_s = 0.0
        for s in spans:
            if s.name != "capsolve.kernel" or s.parent is None:
                continue
            first_lstsq = min(
                (spans[k].start for k in kids.get(s.parent, ()) if spans[k].name == "capsolve.lstsq"),
                default=float("inf"),
            )
            if s.start < first_lstsq:
                kernel_s += s.duration
    levels = by_name.get("capsolve.level", [])
    if have("capsolve.lstsq", "capsolve.level"):
        check_s = 0.0
        for i, s in enumerate(spans):
            if s.name == "capsolve.level":
                ends = [spans[k].end for k in kids.get(i, ()) if spans[k].name == "capsolve.lstsq"]
                if ends:
                    check_s += s.end - max(ends)
    m["capsolve.kernel_s"] = kernel_s
    m["capsolve.check_s"] = check_s
    m["capsolve.discretize_s"] = total("capsolve.discretize")
    m["capsolve.boundary_s"] = total("capsolve.boundary")

    if have("capsolve.level"):
        per_solve: dict[int, list[Span]] = {}
        for s in levels:
            per_solve.setdefault(s.solve, []).append(s)
        m["capsolve.levels"] = len(levels)
        m["capsolve.useful_level_ratio"] = len(solves) / len(levels) if levels else None
        m["capsolve.wasted_level_s"] = sum(
            sum(s.duration for s in group[:-1]) for group in per_solve.values()
        )
    else:
        m["capsolve.levels"] = m["capsolve.useful_level_ratio"] = m["capsolve.wasted_level_s"] = None

    m["experiments.recenter_s"] = total("experiments.recenter_triangle") if have(
        "experiments.recenter_triangle") else None
    drivers = _outermost(spans, {f"experiments.{d}" for d in DRIVERS})
    solve_idx = set(_outermost(spans, set(TOP_LEVEL)))
    driver_self = 0.0
    for i in drivers:
        inside = [(spans[k].start, spans[k].end) for k in solve_idx if _descends(spans, k, i)]
        driver_self += spans[i].duration - covered(inside, spans[i].start, spans[i].end)
    m["experiments.driver_self_s"] = driver_self
    m["hypgeom.polygon_build_s"] = total("hypgeom.polygon_build")
    m["hypgeom.polygon_builds"] = (
        len(_outermost(spans, {"hypgeom.polygon_build"})) if have("hypgeom.polygon_build") else None
    )
    m["condenser.ref_s"] = total("condenser.ref")

    selfs = self_times(spans)
    for layer in ("experiments", "hypgeom", "capsolve", "condenser"):
        m[f"layer.{layer}.self_s"] = sum(t for t, s in zip(selfs, spans) if s.layer == layer)
    return m


def _descends(spans, i: int, ancestor: int) -> bool:
    p = spans[i].parent
    while p is not None:
        if p == ancestor:
            return True
        p = spans[p].parent
    return False
