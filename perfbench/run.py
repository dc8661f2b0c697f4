"""Benchmark of the hypcap capacity solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload regular --seed 0 --seconds 20 --trace 0

``--trace 0`` is a timed run.  It measures set-up in fresh interpreters,
warms up, then repeats passes over the workload's inputs for
``--seconds``: a driver pass through ``experiments.run_*`` (its time is
``wall_s``) and a pass of direct ``cap_polygon``/``cap_disk`` calls, each
timed (``solve_s_p50``).  Nothing is wrapped.  ``--trace 1`` is a
separate run that alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, with the tracing overhead.

Every output is checked: disks against the closed form, polygons against
reference.json (make_reference.py), and every driver row for a False
verdict on a mathematical claim.  A failing check counts in ``failed``.
Metrics are printed one per line with their unit; the last line of
standard output is the JSON result.  Spans and the environment are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s_p50": "s",
    "cap_digits_min": "digits",
    "converged_frac": "frac",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
}
# per-layer metric: (unit, better, the end-to-end metric it should move
# and on which workload); BENCHMARK.json's schema has no room for the
# prediction, so it is kept here and printed with every traced run.
# disks runs only by hand (see workloads.py)
PER_LAYER = {
    "capsolve.solves": ("count", "higher", "top-level solves per pass; the base of the ratios"),
    "capsolve.lstsq_s": ("s", "lower", "wall_s, solve_s_p50 on regular and irregular (~70%); barely on disks"),
    "capsolve.lstsq_calls": ("count", "lower", "wall_s on irregular (one call per level)"),
    "capsolve.lstsq_gflop": ("Gflop", "lower", "wall_s, solve_s_p50 on regular and irregular"),
    "capsolve.lstsq_gflops": ("Gflop/s", "higher", "wall_s on regular and irregular; low on disks"),
    "capsolve.kernel_s": ("s", "lower", "wall_s on regular and irregular (~15%); ~40% with check_s on disks"),
    "capsolve.check_s": ("s", "lower", "wall_s on regular and irregular (~13%); more on disks"),
    "capsolve.discretize_s": ("s", "lower", "wall_s ~1-2% on regular and irregular; per-call cost on disks"),
    "capsolve.boundary_s": ("s", "lower", "wall_s <0.1% on regular and irregular; per-call cost on disks"),
    "capsolve.levels": ("count", "lower", "wall_s, converged_frac on irregular; none on regular"),
    "capsolve.useful_level_ratio": ("ratio", "higher", "wall_s, converged_frac on irregular; 1 on regular"),
    "capsolve.wasted_level_s": ("s", "lower", "wall_s on irregular; 0 on regular"),
    "capsolve.max_rows": ("count", "lower", "peak_rss_mb, wall_s; cap_digits_min on regular"),
    "capsolve.max_cols": ("count", "lower", "peak_rss_mb, wall_s; cap_digits_min on regular"),
    "capsolve.matrix_mb": ("MB", "lower", "peak_rss_mb, wall_s; cap_digits_min on regular"),
    "capsolve.rank_deficit": ("count", "lower", "wall_s and cap_digits_min on regular"),
    "experiments.recenter_s": ("s", "lower", "wall_s on irregular"),
    "experiments.driver_self_s": ("s", "lower", "wall_s minus the solves, all driver workloads"),
    "experiments.rows": ("count", "higher", "rows per pass; the base of inconclusive"),
    "experiments.inconclusive": ("count", "lower", "verdict quality on irregular; no time"),
    "hypgeom.polygon_build_s": ("s", "lower", "wall_s on regular, a small share"),
    "hypgeom.polygon_builds": ("count", "lower", "wall_s on regular, a small share"),
    "condenser.ref_s": ("s", "lower", "negligible everywhere; shows a change that makes it costly"),
    "layer.experiments.self_s": ("s", "lower", "wall_s on regular and irregular"),
    "layer.hypgeom.self_s": ("s", "lower", "wall_s on regular and irregular"),
    "layer.capsolve.self_s": ("s", "lower", "wall_s and solve_s_p50 on every workload"),
    "layer.condenser.self_s": ("s", "lower", "negligible everywhere"),
    "trace.wall_s": ("s", "lower", "traced wall_s of one pass"),
    "trace.untraced_wall_s": ("s", "lower", "untraced wall_s of the same run"),
    "trace.overhead_s": ("s", "lower", "tracing overhead: trace.wall_s - trace.untraced_wall_s"),
}

SETUP_PROBES = 5
PROBE = """\
import time
t0 = time.perf_counter()
from hypcap import capsolve, experiments, hypgeom
{solve}
print(time.perf_counter() - t0)
"""
PROBE_SOLVE = {
    "polygon": "capsolve.cap_polygon(hypgeom.regular_polygon(3, 0.5))",
    "disks": "capsolve.cap_disk(hypgeom.HypDisk(0.3, 1.0))",
}
DISK_WARM_UP_S = 3.0
# the smallest relative error a capacity can show in double precision
EPS = 2.0**-53


def load_program():
    """Import hypcap from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import hypcap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hypcap from {src}: {exc}")
    if not Path(hypcap.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: hypcap imported from {hypcap.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    for name, mod, section in (("numpy_blas", numpy, "blas"), ("scipy_lapack", scipy, "lapack")):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"][section]
            env[name] = f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, AttributeError):
            env[name] = "unknown"
    # OpenBLAS threads in effect, from the libraries numpy and scipy ship
    threads = {}
    for mod in (numpy, scipy):
        for lib in glob.glob(str(Path(mod.__file__).parent) + ".libs/*openblas*"):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[Path(lib).name] = fn()
                    break
    env["blas_threads"] = threads
    return env


def setup_time(kind: str) -> float:
    """Seconds from before `import hypcap` to the first small solve's
    return, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(solve=PROBE_SOLVE[kind])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Outcomes of the top-level solves of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.direct = self.nonconverged = 0
        self.max_err = None
        self.failures: list[str] = []

    def add(self, key: str, ok: bool, err):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(key)
        if err is not None:
            self.max_err = err if self.max_err is None else max(self.max_err, err)


def driver_pass(w, tally: Tally, solves: dict) -> tuple[float, list]:
    from hypcap import experiments

    import workloads

    t0 = time.perf_counter()
    results = []
    for call in w.calls:
        try:
            results.append(getattr(experiments, call.name)(**call.kwargs))
        except Exception as exc:  # a crashing driver fails its solves; the run goes on
            results.append(exc)
    wall = time.perf_counter() - t0
    stats = []
    for call, rows in zip(w.calls, results):
        if isinstance(rows, Exception):
            tally.failures.append(f"{call.name}: {rows!r}")
            rows = []
        for key, cap, ok in workloads.check_rows(call, rows, solves):
            tally.add(key, ok, solves[key].rel_err(cap) if math.isfinite(cap) else None)
        stats.append((len(rows), sum(v == experiments.INCONCLUSIVE
                                     for r in rows for v in r.verdicts.values())))
    return wall, stats


def direct_pass(solves, tally: Tally, times: list) -> float:
    t_pass = time.perf_counter()
    for s in solves:
        t0 = time.perf_counter()
        try:
            rep = s.call()
        except Exception as exc:  # a raising solve is a failed solve
            rep, key = None, f"{s.key}: {exc!r}"
        times.append(time.perf_counter() - t0)
        tally.direct += 1
        if rep is None:
            tally.add(key, False, None)
        else:
            tally.nonconverged += not rep.converged
            tally.add(s.key, s.ok(rep.capacity), s.rel_err(rep.capacity))
    return time.perf_counter() - t_pass


def warm_up(w):
    """Run the workload's own solve path untimed, so that imports and
    lazy set-up are done before timing starts."""
    from hypcap import capsolve, hypgeom

    if w.calls:
        capsolve.cap_polygon(hypgeom.regular_polygon(3, 0.5))
        return
    start = time.perf_counter()
    while time.perf_counter() - start < DISK_WARM_UP_S:
        direct_pass(w.next_solves(), Tally(), [])


def timed_run(w, seconds: float) -> tuple[dict, Tally, list]:
    kind = "disks" if w.name == "disks" else "polygon"
    setups = [setup_time(kind) for _ in range(SETUP_PROBES)]
    warm_up(w)
    tally = Tally()
    walls, times = [], []
    solves = {s.key: s for s in w.solves}
    start = time.perf_counter()
    while True:
        if w.calls:
            wall, _ = driver_pass(w, tally, solves)
            walls.append(wall)
        wall = direct_pass(w.next_solves(), tally, times)
        if not w.calls:
            walls.append(wall)
        if time.perf_counter() - start >= seconds:
            break
    err = tally.max_err
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "solve_s_p50": statistics.median(times),
        "cap_digits_min": -math.log10(max(err, EPS)) if err is not None else None,
        "converged_frac": 1.0 - tally.nonconverged / tally.direct,
        "passed_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"wall_s over {len(walls)} passes: min {min(walls)} max {max(walls)} s",
        f"setup samples {[round(x, 4) for x in setups]}",
        f"failed_frac {tally.failed / tally.attempted} (failed {tally.failed} of {tally.attempted})",
        f"nonconverged_frac {tally.nonconverged / tally.direct} ({tally.nonconverged} of {tally.direct})",
        f"cap_rel_err_max {err}",
        tail_line(times),
    ]
    return metrics, tally, notes


def tail_line(times) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    tail = [k for k in (900, 990, 999) if n * (1000 - k) >= 10000]
    line = f"solve_s p50 {statistics.median(times)} s"
    if tail:
        cuts = statistics.quantiles(times, n=1000, method="inclusive")
        line += f", p{tail[-1] / 10:g} {cuts[tail[-1] - 1]} s"
    return line + f" (n={n})"


def traced_run(w, seconds: float) -> tuple[dict, Tally, list, list]:
    import tracing

    warm_up(w)
    tally = Tally()
    solves = {s.key: s for s in w.solves}
    untraced, traced, per_pass, all_spans = [], [], [], []
    start = time.perf_counter()
    while True:
        if w.calls:
            untraced.append(driver_pass(w, tally, solves)[0])
        else:
            untraced.append(direct_pass(w.next_solves(), tally, []))
        tracer = tracing.Tracer()
        pass_solves = w.next_solves()
        with tracer.installed():
            if w.calls:
                wall, stats = driver_pass(w, tally, solves)
            else:
                wall, stats = direct_pass(pass_solves, tally, []), []
        traced.append(wall)
        m = tracing.layer_metrics(tracer.spans, tracer.installed_names)
        m["experiments.rows"] = sum(n for n, _ in stats)
        m["experiments.inconclusive"] = sum(k for _, k in stats)
        per_pass.append(m)
        all_spans.append(tracer.spans)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name in PER_LAYER:
        vals = [m.get(name) for m in per_pass]
        metrics[name] = None if any(v is None for v in vals) else statistics.median(vals)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    notes = [f"passes {len(traced)} traced, {len(untraced)} untraced"]
    return metrics, tally, notes, all_spans


def write_spans(path: Path, passes):
    with path.open("w") as f:
        for k, spans in enumerate(passes):
            for i, s in enumerate(spans):
                f.write(json.dumps({
                    "pass": k, "id": i, "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "parent": s.parent, "solve": s.solve, **s.attrs,
                }) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())["solves"]
    env = environment()
    w = workloads.build(args.workload, args.seed, reference)

    spans = None
    if args.trace:
        metrics, tally, notes, spans = traced_run(w, args.seconds)
        units = {k: unit for k, (unit, _, _) in PER_LAYER.items()}
        notes += [f"predicts {k}: {moves}" for k, (_, _, moves) in PER_LAYER.items()]
    else:
        metrics, tally, notes = timed_run(w, args.seconds)
        units = END_TO_END

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if spans is not None:
        write_spans(OUT / f"spans-{tag}.jsonl", spans)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"args": vars(args), "environment": env, "notes": notes,
                    "failures": tally.failures, **result}, indent=1)
    )

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# environment {json.dumps(env)}")
    for line in notes:
        print(f"# {line}")
    for key in tally.failures:
        print(f"# FAILED {key}")
    for k, u in units.items():
        v = metrics[k]
        print(f"{k} = {'absent' if v is None else v} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
