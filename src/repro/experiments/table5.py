"""Table V: coverage of interface mechanisms per benchmark.

'C' marks compiler-automated use, 'U' user-annotated use (the §VI-D case
studies). The compiler rows come straight from the coverage recorders of
each dataset's Dist-DA compiles, the ones its cells replay; the user rows
from the case studies' annotation sets.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..compiler import CompileMode
from ..interface.intrinsics import CoverageRecorder, Intrinsic
from ..sim.system import compiled_kernel, functional_pass
from ..workloads import ALL_WORKLOADS, PAPER_ORDER
from .fig12 import user_annotation_coverage
from .runner import format_table

CASE_STUDIES = (
    ("spmv (annotated)", "spmv"),
    ("nw (annotated)", "nw"),
    ("bfs (multi-thread)", "bfs"),
    ("pf (multi-thread)", "pf"),
)


def coverage_for_workload(short: str, scale: str = "tiny"
                          ) -> CoverageRecorder:
    """The mechanisms a workload's Dist-DA compiles use."""
    cov = CoverageRecorder()
    entry = functional_pass(lambda: ALL_WORKLOADS[short].build(scale))
    for rec in entry.first_calls():
        cov.merge(compiled_kernel(entry, rec, CompileMode.DIST).coverage)
    return cov


def compute(workloads: Sequence[str] = PAPER_ORDER,
            scale: str = "tiny") -> Dict:
    rows: Dict[str, Dict[str, str]] = {}
    for workload in workloads:
        rows[workload] = coverage_for_workload(workload, scale).row()
    for label, short in CASE_STUDIES:
        rows[label] = user_annotation_coverage(short).row()
    return {"rows": rows}


def format_rows(data: Dict) -> str:
    mechanisms = [i.mnemonic for i in Intrinsic]
    header = ["benchmark"] + [m.replace("cp_", "") for m in mechanisms]
    rows = [
        [name] + [row.get(m, "") for m in mechanisms]
        for name, row in data["rows"].items()
    ]
    return ("Table V: interface-mechanism coverage (C = compiler, "
            "U = user)\n" + format_table(header, rows))
