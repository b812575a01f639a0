#!/usr/bin/env python3
"""Regenerate ``expected.json``: the digest of every cell a seed can draw.

    python3 perfbench/make_expected.py

Each workload's inputs come from a small fixed universe (the paper
matrix, the sweep's clock x mesh grid, the dataset shapes), so the
digests cover every seed, not only the default one. Regenerate only
when a change is meant to alter simulated results; a speed-only change
must leave this file untouched. Takes about two minutes on a 2-core x86
host.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import (  # noqa: E402
    PAPER_ORDER, FreshTraces, MachineSweep, PaperMatrix, cell_key, digest,
    point_key,
)


def paper_matrix(scale):
    from repro.experiments.runner import run_matrix
    from repro.testing.golden import cell_record

    matrix = run_matrix(scale=scale, jobs=1)
    return {cell_key(w, c): digest(cell_record(run))
            for (w, c), run in matrix.results.items()}


def machine_sweep(scale):
    from repro.dse.scheduler import run_sweep
    from repro.dse.spec import SweepSpec

    spec = MachineSweep.spec(scale, MachineSweep.FREQS,
                             MachineSweep.TOPOLOGIES)
    result = run_sweep(SweepSpec.from_dict(spec), jobs=1)
    if result.failed_rows():
        raise SystemExit(f"failed rows: {result.failed_rows()}")
    return {point_key(r["point"]): digest(r["metrics"])
            for r in result.rows.values()}


def fresh_traces(scale):
    from repro.params import experiment_machine
    from repro.sim.system import simulate_workload
    from repro.testing.golden import cell_record
    from repro.workloads import ALL_WORKLOADS

    machine = experiment_machine()
    out = {}
    for w in PAPER_ORDER:
        for kwargs in FreshTraces.shapes(w, scale):
            run = simulate_workload(ALL_WORKLOADS[w].build(scale, **kwargs),
                                    "ooo", machine=machine)
            out[cell_key(w, "ooo", kwargs=kwargs)] = digest(cell_record(run))
    return out


def main() -> int:
    expected = {}
    for scale in ("tiny", "small"):
        for cls, make in ((PaperMatrix, paper_matrix),
                          (MachineSweep, machine_sweep),
                          (FreshTraces, fresh_traces)):
            cells = expected[f"{cls.NAME}@{scale}"] = make(scale)
            print(f"{cls.NAME}@{scale}: {len(cells)} cells", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
