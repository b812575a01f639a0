"""Simulation-as-a-service: a persistent sweep server over the DSE engine.

Batch sweeps (``python -m repro.dse``) pay full startup per query. This
package keeps the engine resident: a long-running server
(``python -m repro.serve``) accepts sweep specs and single-cell queries
over HTTP (TCP or a unix socket), dedups identical in-flight points,
runs dataset groups on the same executor and row builder a batch
:mod:`repro.dse.scheduler` sweep uses — so service rows are
byte-identical to batch rows — and answers repeated queries from an indexed sqlite result
store (:class:`repro.dse.store.SqliteResultStore`) in milliseconds.
Most interactive design-space traffic is a cache hit; the service
measures that (hit ratio, queue depth/latency, points/sec via
``repro.obs``) and ``benchmarks/perf/bench_serve.py`` pins it under a
synthetic request storm.

Operator guide (endpoints, job lifecycle, store migration, failure
modes): docs/SERVICE.md. Entry points::

    python -m repro.serve --port 8177 --store serve-store.sqlite

    from repro.serve import ServeClient
    client = ServeClient(port=8177)
    job = client.submit_sweep("smoke")
    client.wait_job(job["id"])
    rows = client.job_rows(job["id"])
"""

from .client import ServeClient, ServiceError
from .config import ServeConfig
from .jobs import Job, JobManager
from .protocol import API_VERSION, ENDPOINTS, JOB_STATES
from .server import SweepServer
from .workers import WorkerPool

__all__ = [
    "API_VERSION", "ENDPOINTS", "JOB_STATES", "Job", "JobManager",
    "ServeClient", "ServeConfig", "ServiceError", "SweepServer",
    "WorkerPool",
]
