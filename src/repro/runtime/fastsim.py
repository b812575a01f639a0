"""Placeholder for the deleted analytic offload replay.

Every offload run now replays through the event engine in
:mod:`repro.runtime.engine`; nothing in the simulator imports this
module. It remains only because the benchmark's layer tracer
(``perfbench/tracing.py``) wraps :func:`replay`, and it goes with the
next change to the benchmark.
"""


def replay(ctx) -> None:
    """Never called: offload runs always use the event engine."""
    return None
