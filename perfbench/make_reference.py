"""Build reference.json: reference capacities of every polygon solve the
benchmark can make.

Run from the root of a checkout (takes a few minutes on 2 cores):

    PYTHONPATH=src python3 perfbench/make_reference.py

Each plate is solved without refinement (max_refine=0) at one and at two
doublings past the default parameters; the second is the reference, and
the relative gap between the two is stored as its self-convergence
estimate.  The regular workload's inputs are covered in every jitter
variant a seed can produce, the irregular workload's at the default seed
(its jitter is an isometry, which leaves capacities unchanged).

A plate whose default solve needs refinement past the first level (a
needle triangle, for instance) gets no reference: two doublings past its
last level are out of reach, so its rows are checked by their verdicts
only.  The published anchors 3-gon r=0.5 and 4-gon r=0.6 are recomputed
at the reference setting as a cross-check.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hypcap import capsolve, hypgeom  # noqa: E402

import workloads  # noqa: E402

ANCHORS = ((3, 0.5, 5.9799062371), (4, 0.6, 8.3279319407))
NO_REFERENCE = "refines past the first level at default parameters; checked by verdicts only"


def reference(plate) -> tuple[float, float]:
    once = capsolve.SolverParams(max_refine=0).doubled()
    twice = once.doubled()
    c1 = capsolve.cap_polygon(plate, params=once).capacity
    c2 = capsolve.cap_polygon(plate, params=twice).capacity
    return c2, abs(c2 - c1) / c2


def entry(plate, tol: float) -> dict:
    t0 = time.perf_counter()
    first = capsolve.cap_polygon(plate, tol, capsolve.SolverParams(max_refine=0))
    if not first.converged:
        return {"capacity": None, "reason": NO_REFERENCE, "default_residual": first.boundary_residual}
    cap, est = reference(plate)
    return {
        "capacity": cap,
        "self_convergence": est,
        "default_capacity": first.capacity,
        "default_rel_err": abs(first.capacity - cap) / cap,
        "default_residual": first.boundary_residual,
        "seconds": time.perf_counter() - t0,
    }


def main() -> int:
    solves = {}
    plates = [
        (key, hypgeom.regular_polygon(m, r), tol) for key, m, r, tol in workloads.regular_variants()
    ] + [(key, plate, workloads.TOL_POLYGON) for key, plate in workloads.irregular_plates()]
    for key, plate, tol in plates:
        if key in solves:
            continue
        solves[key] = entry(plate, tol)
        print(key, json.dumps(solves[key]), flush=True)
    anchors = []
    for m, r, published in ANCHORS:
        cap, est = reference(hypgeom.regular_polygon(m, r))
        anchors.append({
            "m": m, "r": r, "published": published, "capacity": cap,
            "self_convergence": est, "rel_diff": abs(cap - published) / published,
        })
        print("anchor", json.dumps(anchors[-1]), flush=True)
    doc = {
        "method": "cap_polygon with max_refine=0 at two doublings past the default "
                  "SolverParams; self_convergence = |c(2 doublings) - c(1 doubling)| / c",
        "no_reference_rule": NO_REFERENCE,
        "anchors": anchors,
        "solves": solves,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
