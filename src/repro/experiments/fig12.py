"""Figure 12: case studies (§VI-D).

(a) Control-intensive offloads: spmv and nw on three Dist-DA variants —
    B (compiler-automated blocked implementation), BN (user-annotated
    blocked loop nests with localized control) and BNS (user-scheduled
    block fill/drain). Paper: spmv goes 0.44x -> 1.22x -> 1.95x.

(b) Multithreaded pathfinder and BFS at 1/2/4/8 threads. Threads split
    the parallel outer iterations; shared-LLC/DRAM contention is charged
    from measured DRAM utilization. Pathfinder skips stream-based access
    specialization (per-thread iteration scheduling — paper's framework
    limitation), so its scaling saturates earlier than BFS's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..interface.intrinsics import CoverageRecorder, Intrinsic
from ..params import MachineParams, experiment_machine
from ..sim.system import simulate_dataset
from ..sim.tracecache import TraceCache
from .runner import format_table

CASE_CONFIGS = ("dist_da_b", "dist_da_bn", "dist_da_bns")
THREAD_COUNTS = (1, 2, 4, 8)
#: fraction of DRAM-busy time that becomes serialization per extra thread
CONTENTION = 0.5


def user_annotation_coverage(workload: str) -> CoverageRecorder:
    """Table V's user-annotated ('U') mechanism rows for the case studies."""
    cov = CoverageRecorder()
    user = CoverageRecorder.USER
    base = [
        Intrinsic.CP_PRODUCE, Intrinsic.CP_CONSUME, Intrinsic.CP_CONFIG,
        Intrinsic.CP_CONFIG_STREAM, Intrinsic.CP_SET_RF,
        Intrinsic.CP_LOAD_RF, Intrinsic.CP_RUN,
    ]
    extra = {
        "spmv": [],
        "nw": [Intrinsic.CP_WRITE, Intrinsic.CP_READ, Intrinsic.CP_STEP,
               Intrinsic.CP_FILL_RA, Intrinsic.CP_DRAIN_RA],
        "bfs": [Intrinsic.CP_WRITE, Intrinsic.CP_READ, Intrinsic.CP_STEP,
                Intrinsic.CP_DRAIN_RA],
        "pf": [Intrinsic.CP_WRITE, Intrinsic.CP_READ, Intrinsic.CP_STEP,
               Intrinsic.CP_DRAIN_RA],
    }
    for intr in base + extra.get(workload, []):
        cov.record(intr, user)
    return cov


def compute_control_intensive(machine: Optional[MachineParams] = None,
                              scale: str = "small") -> Dict:
    """Fig 12a: spmv & nw speedups for B / BN / BNS, normalized to OoO."""
    machine = machine or experiment_machine()
    # each dataset's cells run back to back, so one entry serves them all
    cache = TraceCache(max_entries=1)
    rows: Dict[str, Dict[str, float]] = {}
    for workload in ("spmv", "nw"):
        base = simulate_dataset(workload, scale, "ooo", machine=machine,
                                trace_cache=cache)
        rows[workload] = {}
        for config in CASE_CONFIGS:
            run = simulate_dataset(workload, scale, config,
                                   machine=machine, trace_cache=cache)
            rows[workload][config] = run.speedup_vs(base)
    return {"speedup": rows}


def compute_multithreaded(machine: Optional[MachineParams] = None,
                          scale: str = "small") -> Dict:
    """Fig 12b: thread-count scaling for pathfinder and BFS."""
    machine = machine or experiment_machine()
    cache = TraceCache(max_entries=1)
    rows: Dict[str, Dict[int, float]] = {}
    for workload, config in (("pf", "dist_da_mt"), ("bfs", "dist_da_f")):
        base = simulate_dataset(workload, scale, "ooo", machine=machine,
                                trace_cache=cache)
        single = simulate_dataset(workload, scale, config, machine=machine,
                                  trace_cache=cache)
        # DRAM utilization drives the shared-memory contention uplift
        dram_cycles = single.cache_stats.dram * 5
        util = min(dram_cycles / max(single.cycles, 1), 1.0)
        rows[workload] = {}
        for threads in THREAD_COUNTS:
            contention = 1.0 + util * CONTENTION * (threads - 1)
            time_ps = single.time_ps * contention / threads
            rows[workload][threads] = base.time_ps / time_ps
    return {"speedup": rows}


def compute(machine: Optional[MachineParams] = None,
            scale: str = "small") -> Dict:
    return {
        "control_intensive": compute_control_intensive(machine, scale),
        "multithreaded": compute_multithreaded(machine, scale),
    }


def format_rows(data: Dict) -> str:
    a = data["control_intensive"]["speedup"]
    header = ["bench"] + list(CASE_CONFIGS)
    rows: List[List[str]] = [
        [w] + [f"{a[w][c]:.2f}" for c in CASE_CONFIGS] for w in a
    ]
    out = ("Figure 12a: control-intensive case study (speedup vs OoO; "
           "paper spmv: 0.44/1.22/1.95)\n" + format_table(header, rows))
    b = data["multithreaded"]["speedup"]
    header = ["bench"] + [f"{t}T" for t in THREAD_COUNTS]
    rows = [
        [w] + [f"{b[w][t]:.2f}" for t in THREAD_COUNTS] for w in b
    ]
    out += ("\n\nFigure 12b: multithreaded scaling (speedup vs 1-thread "
            "OoO)\n" + format_table(header, rows))
    return out
