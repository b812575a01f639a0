"""Figure 14: software-optimization sensitivity (§VI-E).

Two configurations, normalized to Dist-DA-IO:

* **Dist-DA-IO+SW** — 4-issue in-order cores plus software prefetches in
  the offloaded code: hides L3 latency for the indirect-access
  benchmarks (pca, pr most prominently in the paper).
* **Dist-DA-F+A** — manual data-structure allocation for intra-cluster
  locality: minor improvements, because innermost-loop offloads already
  have intra-cluster locality most of the time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from ..params import MachineParams, experiment_machine
from ..sim.system import simulate_dataset
from ..sim.tracecache import TraceCache
from ..workloads import PAPER_ORDER
from .runner import format_table, geomean

VARIANTS = ("dist_da_io_sw", "dist_da_f_alloc")


def compute(workloads: Sequence[str] = PAPER_ORDER,
            machine: Optional[MachineParams] = None,
            scale: str = "small") -> Dict:
    machine = machine or experiment_machine()
    # +A: allocation tuned for intra-cluster locality — modeled as the F
    # configuration with larger access-unit buffers capturing the
    # manually co-located windows
    alloc_machine = replace(
        machine, access_unit=replace(
            machine.access_unit,
            buffer_bytes=machine.access_unit.buffer_bytes * 2,
        )
    )
    # each dataset's three cells run back to back and share its entry
    cache = TraceCache(max_entries=1)
    speedup: Dict[str, Dict[str, float]] = {}
    energy: Dict[str, Dict[str, float]] = {}
    for workload in workloads:
        base_io = simulate_dataset(workload, scale, "dist_da_io",
                                   machine=machine, trace_cache=cache)
        sw = simulate_dataset(workload, scale, "dist_da_io_sw",
                              machine=machine, trace_cache=cache)
        f_alloc = simulate_dataset(workload, scale, "dist_da_f",
                                   machine=alloc_machine, trace_cache=cache)
        speedup[workload] = {
            "dist_da_io_sw": sw.speedup_vs(base_io),
            "dist_da_f_alloc": f_alloc.speedup_vs(base_io),
        }
        energy[workload] = {
            "dist_da_io_sw": sw.energy_efficiency_vs(base_io),
            "dist_da_f_alloc": f_alloc.energy_efficiency_vs(base_io),
        }
    gm = {
        v: geomean(speedup[w][v] for w in speedup) for v in VARIANTS
    }
    return {"speedup": speedup, "energy_eff": energy, "gm_speedup": gm}


def format_rows(data: Dict) -> str:
    header = ["bench"] + [
        f"{v}:{m}" for v in VARIANTS for m in ("spd", "ee")
    ]
    rows = []
    for w in data["speedup"]:
        row = [w]
        for v in VARIANTS:
            row += [f"{data['speedup'][w][v]:.2f}",
                    f"{data['energy_eff'][w][v]:.2f}"]
        rows.append(row)
    rows.append(["GM"] + [
        x for v in VARIANTS for x in (f"{data['gm_speedup'][v]:.2f}", "")
    ])
    return ("Figure 14: software optimizations (normalized to "
            "Dist-DA-IO)\n" + format_table(header, rows))
