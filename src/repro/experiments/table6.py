"""Table VI: offload characteristics for Dist-DA.

Columns: benchmark, %code coverage, %data coverage, %init (MMIO)
overhead, average #buffers per partitioned offload, maximum static
instructions and DFG dimensions, and the in-order microcode size in
bytes. The dynamic counts are the golden interpretation's (the kernels
against the host-side remainder of the application: outer control,
setup, I/O); the offload columns come from each kernel's Dist-DA
compile, the one the dataset's cells replay.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..compiler import CompileMode
from ..interface.intrinsics import MMIO_WORD_BYTES
from ..sim.system import compiled_kernel, functional_pass
from ..workloads import ALL_WORKLOADS, PAPER_ORDER
from .runner import format_table


def compute_workload(short: str, scale: str = "small") -> Dict:
    instance = ALL_WORKLOADS[short].build(scale)
    entry = functional_pass(lambda: instance)
    kernel_insts = sum(rec.counts.total_insts for rec in entry.calls)
    kernel_accesses = sum(
        rec.counts.loads + rec.counts.stores for rec in entry.calls
    )
    host_insts = instance.host_insts_per_call * len(entry.calls)
    host_accesses = instance.host_accesses_per_call * len(entry.calls)
    init_mmio_words = 0
    max_insts = 0
    dims = (0, 0)
    max_ucode = 0
    buffers = []
    for rec in entry.first_calls():
        ck = compiled_kernel(entry, rec, CompileMode.DIST)
        for off in ck.offloads:
            init_mmio_words += off.init_mmio_bytes // MMIO_WORD_BYTES
            if off.num_insts > max_insts:
                max_insts = off.num_insts
                dims = off.dfg_dims
            max_ucode = max(max_ucode, off.microcode_bytes)
            buffers.append(off.avg_physical_buffers())
    total_insts = kernel_insts + host_insts
    total_accesses = kernel_accesses + host_accesses
    return {
        "pct_cc": 100.0 * kernel_insts / max(total_insts, 1),
        "pct_dc": 100.0 * kernel_accesses / max(total_accesses, 1),
        "pct_init": 100.0 * init_mmio_words / max(total_accesses, 1),
        "avg_buffers": sum(buffers) / len(buffers) if buffers else 0.0,
        "max_insts": max_insts,
        "dfg_dims": dims,
        "ucode_bytes": max_ucode,
    }


def compute(workloads: Sequence[str] = PAPER_ORDER,
            scale: str = "small") -> Dict:
    return {"rows": {w: compute_workload(w, scale) for w in workloads}}


def format_rows(data: Dict) -> str:
    header = ["bench", "%cc", "%dc", "%init", "#buf", "#insts",
              "DFG dim", "insts(B)"]
    rows = []
    for w, r in data["rows"].items():
        depth, width = r["dfg_dims"]
        rows.append([
            w, f"{r['pct_cc']:.0f}", f"{r['pct_dc']:.2f}",
            f"{r['pct_init']:.2f}", f"{r['avg_buffers']:.1f}",
            str(r["max_insts"]), f"{depth}x{width}",
            str(r["ucode_bytes"]),
        ])
    return ("Table VI: offload characteristics (Dist-DA)\n"
            + format_table(header, rows))
