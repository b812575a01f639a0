"""Golden snapshot of the experiment matrix's headline numbers.

Serializes every (workload, configuration) cell of a matrix run to a
deterministic JSON document — cycles, instructions, memory operations,
data movement, NoC flits, energy — and compares it against a snapshot
committed under ``tests/golden/``. Any change to the modeled numbers
shows up as a reviewable JSON diff instead of silently shifting the
paper's figures. A second section, ``ledgers``, holds each cell's
split of the two ledgers: bytes per NoC traffic class (Figure 10) and
every energy event count, keyed ``component.event`` (Figure 7's
per-component energy). A ledger change that moves the split but not
the totals shows up there.

The same module pins the *machine* snapshot: every builtin machine
document under ``repro/machine/builtin/`` is constructed into its
derived :class:`~repro.params.MachineParams` and compared field for
field (plus digest) against ``tests/golden/machines.json`` — a change
to a shipped document, a schema default, or the construction path shows
up as a reviewable diff.

A third snapshot, ``tests/golden/sections_tiny.json``, pins the report
sections that are not matrix cells, as their ``compute()`` functions
return them at tiny scale: Table V, Table VI, Figure 12 and Figure 14.

Usage::

    python -m repro.testing.golden                  # verify all snapshots
    python -m repro.testing.golden --update   # refresh matrix and sections
    python -m repro.testing.golden --update-machines  # refresh machines
    python -m repro.testing.golden --jobs 4      # verify a parallel run too

The document is byte-deterministic: no wall-clock fields, sorted keys,
and exact counter values (floats serialize through ``repr`` via the
``json`` module, which round-trips bit-exactly). That also makes it the
comparison format for the cross-process determinism test — a serial and
a ``jobs=N`` matrix must dump byte-identical snapshots.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from ..params import MachineParams
from ..sim.results import RunResult

#: ledger counter key for router flit traversals (the NoC headline)
_FLIT_KEY = ("noc", "noc_router_flit")

#: default committed snapshot location, resolved relative to this tree
GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "tests", "golden", "matrix_tiny.json",
)

#: committed machine snapshot: derived MachineParams of every builtin
MACHINES_GOLDEN_PATH = os.path.join(
    os.path.dirname(GOLDEN_PATH), "machines.json",
)

#: committed snapshot of the report's non-matrix sections at tiny scale
SECTIONS_GOLDEN_PATH = os.path.join(
    os.path.dirname(GOLDEN_PATH), "sections_tiny.json",
)


def cell_record(run: RunResult) -> Dict[str, object]:
    """The headline numbers of one matrix cell, all exact values."""
    return {
        "time_ps": run.time_ps,
        "insts": run.insts,
        "mem_ops": run.mem_ops,
        "movement_bytes": run.movement_bytes,
        "mmio_bytes": run.mmio_bytes,
        "accel_iterations": run.accel_iterations,
        "noc_flits": run.energy.count(*_FLIT_KEY),
        "energy_pj": run.energy.total_pj(),
        "l1": run.cache_stats.l1,
        "l2": run.cache_stats.l2,
        "l3": run.cache_stats.l3,
        "dram": run.cache_stats.dram,
        "validated": run.validated,
    }


def ledger_record(run: RunResult) -> Dict[str, object]:
    """One matrix cell's ledger split, all exact values."""
    return {
        "traffic_breakdown": dict(run.traffic_breakdown),
        "energy_counts": {
            f"{component}.{event}": n
            for (component, event), n in sorted(run.energy.counts().items())
        },
    }


def matrix_snapshot(scale: str = "tiny",
                    machine: Optional[MachineParams] = None,
                    workloads: Optional[Sequence[str]] = None,
                    configs: Optional[Sequence[str]] = None,
                    jobs: Optional[int] = None) -> Dict[str, object]:
    """Run the matrix and collect every cell's headline record and
    ledger split."""
    from ..experiments.runner import BASELINE, PAPER_CONFIGS, run_matrix
    from ..workloads import PAPER_ORDER

    workloads = tuple(workloads or PAPER_ORDER)
    configs = tuple(configs or (BASELINE,) + PAPER_CONFIGS)
    matrix = run_matrix(scale=scale, machine=machine,
                        workloads=workloads, configs=configs, jobs=jobs)
    return {
        "scale": scale,
        "workloads": list(workloads),
        "configs": list(configs),
        "cells": {
            w: {c: cell_record(matrix.results[(w, c)]) for c in configs}
            for w in workloads
        },
        "ledgers": {
            w: {c: ledger_record(matrix.results[(w, c)]) for c in configs}
            for w in workloads
        },
    }


def sections_snapshot() -> Dict[str, object]:
    """Table V, Table VI and Figures 12 and 14 as the report computes
    them at tiny scale, in JSON form (tuples become lists, Figure 12b's
    thread counts string keys), so it compares equal to its load."""
    from ..experiments import fig12, fig14, table5, table6
    from ..params import experiment_machine

    machine = experiment_machine()
    return json.loads(snapshot_text({
        "scale": "tiny",
        "table5": table5.compute(scale="tiny"),
        "table6": table6.compute(scale="tiny"),
        "fig12": fig12.compute(machine, "tiny"),
        "fig14": fig14.compute(machine=machine, scale="tiny"),
    }))


def diff_sections(expected: Dict[str, object],
                  actual: Dict[str, object]) -> list:
    """Human-readable divergences between two sections snapshots."""
    lines: list = []
    _diff_fields("sections", expected, actual, lines)
    return lines


def machines_snapshot() -> Dict[str, object]:
    """Digest + fully-derived parameters of every builtin machine."""
    from dataclasses import asdict

    from ..machine import builtin_documents, builtin_machine
    from ..params import machine_digest

    machines = {}
    for name in sorted(builtin_documents()):
        machine = builtin_machine(name)
        machines[name] = {
            "digest": machine_digest(machine),
            "params": asdict(machine),
        }
    return {"machines": machines}


def diff_machines(expected: Dict[str, object],
                  actual: Dict[str, object]) -> list:
    """Human-readable divergences between two machine snapshots."""
    lines = []
    exp = expected.get("machines", {})
    act = actual.get("machines", {})
    for name in sorted(set(exp) | set(act)):
        if name not in exp or name not in act:
            lines.append(f"{name}: present in only one snapshot")
            continue
        if exp[name].get("digest") != act[name].get("digest"):
            lines.append(
                f"{name}.digest: golden={exp[name].get('digest')!r} "
                f"actual={act[name].get('digest')!r}"
            )

        def walk(path, e, a):
            if isinstance(e, dict) and isinstance(a, dict):
                for key in sorted(set(e) | set(a)):
                    walk(f"{path}.{key}", e.get(key), a.get(key))
            elif e != a:
                lines.append(f"{path}: golden={e!r} actual={a!r}")

        walk(f"{name}.params", exp[name].get("params"),
             act[name].get("params"))
    return lines


def snapshot_text(snapshot: Dict[str, object]) -> str:
    """Canonical byte-deterministic serialization of a snapshot."""
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def write_snapshot(snapshot: Dict[str, object], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(snapshot_text(snapshot))


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path) as f:
        return json.load(f)


def diff_snapshots(expected: Dict[str, object],
                   actual: Dict[str, object]) -> list:
    """Human-readable list of per-cell field divergences, over the
    headline records and the ledger splits."""
    lines = []
    for section, prefix in (("cells", ""), ("ledgers", "ledgers.")):
        exp_cells = expected.get(section, {})
        act_cells = actual.get(section, {})
        for w in sorted(set(exp_cells) | set(act_cells)):
            if w not in exp_cells or w not in act_cells:
                lines.append(f"{prefix}{w}: present in only one snapshot")
                continue
            for c in sorted(set(exp_cells[w]) | set(act_cells[w])):
                if c not in exp_cells[w] or c not in act_cells[w]:
                    lines.append(
                        f"{prefix}{w}/{c}: present in only one snapshot")
                    continue
                _diff_fields(f"{prefix}{w}/{c}", exp_cells[w][c],
                             act_cells[w][c], lines)
    return lines


def _diff_fields(path: str, exp: Dict[str, object],
                 act: Dict[str, object], lines: list) -> None:
    """Append one line per differing field, descending into dicts."""
    for field in sorted(set(exp) | set(act)):
        e, a = exp.get(field), act.get(field)
        if isinstance(e, dict) and isinstance(a, dict):
            _diff_fields(f"{path}.{field}", e, a, lines)
        elif e != a:
            lines.append(f"{path}.{field}: golden={e!r} actual={a!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.golden",
        description="Verify (or refresh) the committed golden snapshot "
                    "of the experiment matrix's headline numbers.",
    )
    parser.add_argument("--update", action="store_true",
                        help="rewrite the matrix and sections snapshots "
                             "instead of verifying")
    parser.add_argument("--update-machines", action="store_true",
                        help="rewrite the builtin-machine snapshot "
                             "instead of verifying")
    parser.add_argument("--path", default=GOLDEN_PATH,
                        help=f"matrix snapshot file (default: "
                             f"{GOLDEN_PATH})")
    parser.add_argument("--machines-path", default=MACHINES_GOLDEN_PATH,
                        help=f"machine snapshot file (default: "
                             f"{MACHINES_GOLDEN_PATH})")
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "large"))
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel matrix workers")
    args = parser.parse_args(argv)

    machines = machines_snapshot()
    if args.update_machines:
        write_snapshot(machines, args.machines_path)
        print(f"machine snapshot written to {args.machines_path} "
              f"({len(machines['machines'])} machines)")
        if not args.update:
            return 0

    snapshot = matrix_snapshot(scale=args.scale, jobs=args.jobs)
    sections = sections_snapshot()
    if args.update:
        write_snapshot(snapshot, args.path)
        write_snapshot(sections, SECTIONS_GOLDEN_PATH)
        ncells = sum(len(v) for v in snapshot["cells"].values())
        print(f"golden snapshot written to {args.path} ({ncells} cells); "
              f"sections written to {SECTIONS_GOLDEN_PATH}")
        return 0
    for path in (args.path, SECTIONS_GOLDEN_PATH):
        if not os.path.exists(path):
            print(f"no golden snapshot at {path}; run with --update",
                  file=sys.stderr)
            return 2
    lines = diff_snapshots(load_snapshot(args.path), snapshot)
    lines += diff_sections(load_snapshot(SECTIONS_GOLDEN_PATH), sections)
    if not args.update_machines:
        if not os.path.exists(args.machines_path):
            print(f"no machine snapshot at {args.machines_path}; run "
                  f"with --update-machines", file=sys.stderr)
            return 2
        lines += diff_machines(load_snapshot(args.machines_path), machines)
    if lines:
        for line in lines:
            print(f"GOLDEN DIFF {line}", file=sys.stderr)
        print(f"{len(lines)} divergence(s); rerun with --update / "
              f"--update-machines if the change is intended",
              file=sys.stderr)
        return 1
    print(f"matrix matches golden snapshot {args.path}; sections match "
          f"{SECTIONS_GOLDEN_PATH}; {len(machines['machines'])} builtin "
          f"machines match {args.machines_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
