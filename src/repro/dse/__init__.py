"""Design-space exploration (DSE): declarative machine/workload sweeps.

The paper's §VI-E studies each hand-roll a loop over one parameter
(fdtd-2d's grid size, the accelerator clock). This package generalizes
them: a :class:`~repro.dse.spec.SweepSpec` — a small dict or JSON file —
declares axes over *machine* parameters (any dotted
:class:`~repro.params.MachineParams` path, plus aliases like
``accel_freq_ghz``), over workload dataset kwargs, over workloads and
over offload configurations. The spec expands into a run matrix; the
scheduler shards dataset groups across worker processes through the one
executor (:mod:`repro.dse.executor`, which also runs the experiment
matrix and the sweep service, and turns a dead or timed-out worker into
``failed`` rows), reuses the functional trace cache so a dataset is
interpreted once and replayed across every machine point, and streams
completed points into an indexed sqlite store keyed by content hash, so
a killed sweep resumes with ``--resume`` by skipping already-stored
points. Reporting computes per-axis sensitivity tables and the
energy/time Pareto frontier.

Entry points::

    python -m repro.dse --spec wss --report          # shipped spec
    python -m repro.dse --spec my_sweep.json --jobs 8 --resume

    from repro.dse import load_spec, run_sweep, format_report
    result = run_sweep(load_spec("clocking"), jobs=4)
"""

from .report import format_report, pareto_frontier, sensitivity_tables
from .scheduler import SweepResult, run_sweep
from .spec import (
    SHIPPED_SPEC_DIR,
    SweepPoint,
    SweepSpec,
    load_spec,
    shipped_specs,
)
from .store import SqliteResultStore, row_text

__all__ = [
    "SHIPPED_SPEC_DIR", "SweepPoint", "SweepSpec", "SweepResult",
    "SqliteResultStore", "format_report", "load_spec", "pareto_frontier",
    "row_text", "run_sweep", "sensitivity_tables", "shipped_specs",
]
