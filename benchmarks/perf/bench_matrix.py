#!/usr/bin/env python
"""Wall-clock benchmark of the experiment matrix.

Times the (workload x configuration) matrix two ways — the production
path (the default: whole-loop affine interpretation, batched host
replay with set-level cache walks, event-driven offload replay with one
batched hierarchy call per chunk) and the reference path
(``REPRO_REFERENCE=1``: tree-walking interpretation, per-access host
replay, event-driven offload replay with one hierarchy call per line or
element) — asserts both produce identical results cell for cell, and
writes a machine-readable report to ``BENCH_matrix.json``:

* wall seconds, cells and cells/second per mode, plus the offload
  engine's counters (events dispatched, offload runs, peak pending
  events, peak channel occupancy);
* the interpret-vs-replay split (the first configuration of each
  workload builds, interprets and validates its dataset; the rest
  replay that cached functional artifact);
* per-cell wall times and the production-over-reference speedup.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_matrix.py \
        --scale small --out benchmarks/perf/BENCH_matrix.json

The reference pass dominates the benchmark's own runtime; use
``--scale tiny`` or restrict ``--workloads`` for a quick check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.envcfg import REPRO_REFERENCE
from repro.experiments.runner import (
    BASELINE,
    PAPER_CONFIGS,
    ResultMatrix,
)
from repro.obs import OBS
from repro.sim.results import RunResult
from repro.workloads import PAPER_ORDER

ENV_VAR = REPRO_REFERENCE.name

#: serial 12x6 small-matrix wall time before the columnar/batched
#: pipeline landed (PR 3's >=3x target is measured against this)
PRE_CHANGE_SMALL_MATRIX_S = 100.3


def _cell_sig(result: RunResult) -> Tuple:
    """Everything the figures read, for the production==reference
    identity check."""
    return (
        result.time_ps,
        result.insts,
        result.mem_ops,
        result.energy_nj,
        result.movement_bytes,
        result.mmio_bytes,
        result.accel_iterations,
        result.validated,
        tuple(sorted(result.traffic_breakdown.items())),
        tuple(sorted(result.cache_stats.as_dict().items())),
        tuple(sorted(result.energy.by_component().items())),
    )


#: benchmark modes: (name, REPRO_REFERENCE)
MODES = (
    ("production", False),
    ("reference", True),
)

#: per-engine event counters copied from the obs registry into each
#: mode's report entry (events-per-cell alongside cells/s)
ENGINE_COUNTERS = (
    "engine.sim_events",
    "engine.offload_runs",
)
ENGINE_MAXIMA = (
    "engine.sim_peak_pending",
    "engine.chan_max_occupancy",
)


def _time_mode(name: str, reference: bool, scale: str,
               workloads: Sequence[str], configs: Sequence[str],
               jobs: Optional[int]) -> Dict:
    os.environ[ENV_VAR] = "1" if reference else "0"
    OBS.reset()
    start = time.perf_counter()
    matrix = ResultMatrix(
        scale=scale, workloads=tuple(workloads), configs=tuple(configs)
    ).run_all(jobs=jobs)
    wall_s = time.perf_counter() - start

    # interp-vs-replay split: the first cell of each workload runs the
    # golden interpreter, every later cell replays its cached trace
    first_of: Dict[str, str] = {}
    interp_s = 0.0
    replay_s = 0.0
    per_cell: List[Dict] = []
    for cell in OBS.cells:
        role = first_of.setdefault(cell.workload, cell.config)
        interpreted = role == cell.config
        if interpreted:
            interp_s += cell.wall_s
        else:
            replay_s += cell.wall_s
        per_cell.append({
            "workload": cell.workload,
            "config": cell.config,
            "wall_s": round(cell.wall_s, 4),
            "trace_elems": cell.trace_elems,
            "interpreted": interpreted,
        })
    n_cells = len(matrix.results)
    events = {c: int(OBS.counter(c)) for c in ENGINE_COUNTERS}
    events.update(
        {m: int(OBS.maxima.get(m, 0)) for m in ENGINE_MAXIMA}
    )
    sim_events = events["engine.sim_events"]
    return {
        "mode": name,
        "repro_reference": int(reference),
        "engine_counters": events,
        "events_per_cell": (round(sim_events / n_cells, 1)
                            if n_cells else None),
        "wall_s": round(wall_s, 3),
        "cells": n_cells,
        "cells_per_s": round(n_cells / wall_s, 3) if wall_s else None,
        "interp_s": round(interp_s, 3),
        "replay_s": round(replay_s, 3),
        "validated": matrix.all_validated(),
        "per_cell": per_cell,
        "_sigs": {  # stripped before writing; used for the identity check
            f"{w}/{c}": _cell_sig(r)
            for (w, c), r in matrix.results.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        help="workload scale (tiny/small/large)")
    parser.add_argument("--workloads", default=",".join(PAPER_ORDER),
                        help="comma-separated workload names")
    parser.add_argument("--configs",
                        default=",".join((BASELINE,) + PAPER_CONFIGS),
                        help="comma-separated configuration names")
    parser.add_argument("--jobs", type=int, default=None,
                        help="matrix parallelism (default: serial)")
    parser.add_argument("--out", default="benchmarks/perf/BENCH_matrix.json",
                        help="output JSON path")
    parser.add_argument("--skip-scalar", action="store_true",
                        help="skip the reference pass (and its identity "
                             "check)")
    args = parser.parse_args(argv)

    workloads = [w for w in args.workloads.split(",") if w]
    configs = [c for c in args.configs.split(",") if c]
    prior = os.environ.get(ENV_VAR)
    try:
        modes = [
            _time_mode(name, reference, args.scale, workloads, configs,
                       args.jobs)
            for name, reference in MODES
            if not (reference and args.skip_scalar)
        ]
    finally:
        if prior is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = prior

    # the reference mode must reproduce the production mode bit for bit
    mismatches: List[str] = []
    for other in modes[1:]:
        mismatches.extend(
            f"{other['mode']}:{key}"
            for key, sig in modes[0]["_sigs"].items()
            if other["_sigs"].get(key) != sig
        )

    wall = {m["mode"]: m["wall_s"] for m in modes}
    speedup = None
    if "reference" in wall and wall["production"]:
        speedup = round(wall["reference"] / wall["production"], 3)
    # headline number: the full small matrix took 100.3 s before the
    # columnar/batched pipeline (the reference mode timed above also
    # gained from the hoisting/inlining that landed alongside it)
    vs_history = None
    if (args.scale == "small" and modes[0]["wall_s"]
            and len(workloads) >= 12 and len(configs) >= 6):
        vs_history = round(PRE_CHANGE_SMALL_MATRIX_S / modes[0]["wall_s"], 3)

    report = {
        "scale": args.scale,
        "workloads": workloads,
        "configs": configs,
        "jobs": args.jobs or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "speedup_production_over_reference": speedup,
        "pre_change_small_matrix_s": PRE_CHANGE_SMALL_MATRIX_S,
        "speedup_vs_pre_change": vs_history,
        "identical_results": (None if len(modes) < 2 else not mismatches),
        "mismatched_cells": mismatches,
        "modes": [
            {k: v for k, v in mode.items() if k != "_sigs"}
            for mode in modes
        ],
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    for mode in report["modes"]:
        print(f"{mode['mode']:>10}: {mode['wall_s']:8.2f}s "
              f"({mode['cells_per_s']} cells/s, "
              f"interp {mode['interp_s']}s / replay {mode['replay_s']}s)")
    if speedup is not None:
        print(f"speedup (production over reference): {speedup}x")
    for mode in report["modes"]:
        counters = mode.get("engine_counters") or {}
        if counters.get("engine.sim_events"):
            print(f"{mode['mode']:>10}: {counters['engine.sim_events']:,} "
                  f"events ({mode['events_per_cell']}/cell) over "
                  f"{counters['engine.offload_runs']:,} offload runs")
    if vs_history is not None:
        print(f"speedup (production vs {PRE_CHANGE_SMALL_MATRIX_S}s "
              f"pre-change "
              f"small matrix): {vs_history}x")
    if mismatches:
        print(f"ERROR: {len(mismatches)} cells differ between modes:",
              ", ".join(mismatches), file=sys.stderr)
        return 1
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
