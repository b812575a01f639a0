"""Placeholder for the deleted per-nest Python compiler.

Every loop nest now runs on :class:`~repro.ir.vecinterp.VecInterpreter`'s
vector path or, when nothing orders it, on the tree-walking
:class:`~repro.ir.interp.Interpreter`; nothing in the simulator imports
this module. It remains only because the benchmark's layer tracer
(``perfbench/tracing.py``) wraps :func:`compiled_nest`, and it goes with
the next change to the benchmark.
"""


def compiled_nest(kernel, nest_index, state, record_trace) -> None:
    """Never called: no nest is compiled."""
    return None
