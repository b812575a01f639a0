#!/usr/bin/env python3
"""Service smoke: boot the real server process, drive it, verify, stop.

The CI gate for ``repro.serve`` (also runnable locally). It:

1. starts ``python -m repro.serve`` as a subprocess on a free port with
   a fresh sqlite store;
2. waits for ``/v1/healthz`` over the client API;
3. submits the shipped ``smoke`` spec, polls the job to completion and
   fetches its rows;
4. asserts the rows are **byte-identical** to a direct in-process
   ``run_sweep`` of the same spec (the service must change nothing but
   latency);
5. resubmits the spec and asserts every point is now a cache hit, and
   that one single-cell query answers cached;
6. sends one query with an invalid machine override and requires a 400
   whose error names the field;
7. asks for a clean shutdown and requires the server process to exit 0.

Exit status 0 on success; 1 with a message otherwise.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.dse.scheduler import run_sweep  # noqa: E402
from repro.dse.spec import load_spec  # noqa: E402
from repro.dse.store import row_text  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    port = free_port()
    store = os.path.join(tmp, "smoke.sqlite")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", str(port),
         "--store", store, "--workers", "2"],
        env=env, stdout=sys.stdout, stderr=sys.stderr,
    )
    client = ServeClient(port=port)
    try:
        client.wait_until_up(timeout_s=60.0)

        job = client.submit_sweep("smoke")
        job = client.wait_job(job["id"], timeout_s=600.0)
        assert job["state"] == "done", f"smoke job ended {job}"
        served = sorted(row_text(r) for r in client.job_rows(job["id"]))

        direct = run_sweep(load_spec("smoke"))
        expected = sorted(row_text(r) for r in direct.rows.values())
        assert served == expected, (
            "service rows differ from direct run_sweep rows:\n"
            f"served:   {served}\nexpected: {expected}")
        print(f"serve_smoke: {len(served)} rows byte-identical to "
              f"run_sweep")

        again = client.submit_sweep("smoke")
        assert again["state"] == "done", again
        assert again["points"]["cached"] == again["points"]["total"], (
            f"resubmission was not fully cached: {again}")

        resp = client.query({"workload": "fdt", "config": "dist_da_f",
                             "scale": "tiny",
                             "machine_overrides":
                                 {"accel_freq_ghz": 2.0}})
        assert resp["cached"] and resp["row"]["status"] == "ok", resp

        status, body = client.request("POST", "/v1/query", {"point": {
            "workload": "fdt", "config": "dist_da_f", "scale": "tiny",
            "machine_overrides": {"l1.ways": 0}}})
        assert status == 400 and "l1.ways" in body.get("error", ""), (
            f"bad machine override answered {status}: {body}")
        print("serve_smoke: bad override answered 400 naming l1.ways")
        stats = client.stats()["stats"]
        print(f"serve_smoke: hit_ratio={stats['hit_ratio']:.3f} "
              f"store_rows={stats['store_rows']}")

        client.shutdown()
        code = proc.wait(timeout=60)
        assert code == 0, f"server exited {code} after clean shutdown"
        print("serve_smoke: OK (clean shutdown, exit 0)")
        return 0
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise
    finally:
        if proc.poll() is None:
            proc.terminate()


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"serve_smoke: FAIL {exc}", file=sys.stderr)
        raise SystemExit(1)
