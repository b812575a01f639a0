"""SweepServer end-to-end over real HTTP: byte-identity, queries, errors.

The service invariant: rows served over the API are **byte-identical**
to the rows a direct in-process ``run_sweep`` of the same spec produces
— the service adds caching and a queue, never different numbers. The
server runs inline (no process pool) on an ephemeral port; one module
fixture serves every test.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.dse.scheduler import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.store import row_text
from repro.serve import ServeClient, ServeConfig, ServiceError, SweepServer

SPEC = {
    "name": "serve-e2e",
    "workloads": ["fdt"],
    "configs": ["dist_da_f"],
    "scale": "tiny",
    "machine_axes": {"accel_freq_ghz": [1.0, 2.0]},
}

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

CELL = {"workload": "fdt", "config": "dist_da_f", "scale": "tiny",
        "machine_overrides": {"accel_freq_ghz": 1.0}}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cfg = ServeConfig(
        port=0,  # ephemeral
        store_path=str(tmp_path_factory.mktemp("serve") / "e2e.sqlite"),
        workers=2, inline=True,
    )
    server = SweepServer(cfg)
    server.start()
    client = ServeClient(port=server.port)
    client.wait_until_up(timeout_s=30.0)
    yield client
    server.stop()


class TestEndToEnd:
    def test_sweep_rows_byte_identical_to_run_sweep(self, served):
        job = served.submit_sweep(SPEC)
        job = served.wait_job(job["id"], timeout_s=300.0)
        assert job["state"] == "done"
        assert job["points"]["total"] == 2
        over_http = sorted(row_text(r)
                           for r in served.job_rows(job["id"]))

        direct = run_sweep(SweepSpec.from_dict(SPEC), jobs=1)
        expected = sorted(row_text(r) for r in direct.rows.values())
        assert over_http == expected

        # resubmission answers entirely from the store
        again = served.submit_sweep(SPEC)
        assert again["state"] == "done"
        assert again["points"]["cached"] == again["points"]["total"] == 2

        # a stored cell answers a single-cell query without the queue
        resp = served.query(CELL)
        assert resp["cached"] and resp["row"]["status"] == "ok"
        assert resp["job"]["state"] == "done"

        # GET /v1/results/{hash} round-trips the same row
        hash_ = resp["row"]["hash"]
        assert row_text(served.result(hash_)) == row_text(resp["row"])

    def test_uncached_query_waits_for_the_row(self, served):
        cold = dict(CELL, machine_overrides={"accel_freq_ghz": 2.5})
        resp = served.query(cold, wait=True, timeout_s=300.0)
        assert not resp["cached"]
        assert resp["row"] is not None
        assert resp["row"]["status"] == "ok"
        assert resp["job"]["state"] == "done"

    def test_health_and_stats(self, served):
        health = served.health()
        assert health["ok"] and health["api_version"] == 1
        stats = served.stats()["stats"]
        assert set(("hit_ratio", "queue_depth", "store_rows",
                    "points_per_s")) <= set(stats)
        counters = served.stats()["counters"]
        assert counters.get("serve.http_requests", 0) > 0

    def test_jobs_listing_contains_submitted_jobs(self, served):
        jobs = served.jobs()
        assert jobs and all("state" in j for j in jobs)


class TestErrorPaths:
    def test_unknown_route_is_404(self, served):
        status, body = served.request("GET", "/v1/nope")
        assert status == 404 and "error" in body

    def test_unknown_shipped_spec_is_400(self, served):
        with pytest.raises(ServiceError) as err:
            served.submit_sweep("no-such-spec")
        assert err.value.status == 400

    def test_invalid_point_is_400(self, served):
        with pytest.raises(ServiceError) as err:
            served.query({"workload": "not-a-workload",
                          "config": "dist_da_f"})
        assert err.value.status == 400

    @pytest.mark.parametrize("field", ["l1.ways", "core.issue_width"])
    def test_bad_machine_override_is_400_naming_the_field(self, served,
                                                            field):
        status, body = served.request("POST", "/v1/query", {
            "point": dict(CELL, machine_overrides={field: 0})})
        assert status == 400, body
        assert field in body["error"]

    def test_bad_machine_axis_is_400_naming_the_field(self, served):
        spec = dict(SPEC, machine_axes={"l3.size_bytes": [1000]})
        status, body = served.request("POST", "/v1/sweeps", {"spec": spec})
        assert status == 400, body
        assert "l3.size_bytes" in body["error"]

    def test_scalar_axis_is_400_naming_the_axis(self, served):
        spec = dict(SPEC, machine_axes={"l1.ways": 8})
        status, body = served.request("POST", "/v1/sweeps", {"spec": spec})
        assert status == 400, body
        assert "'l1.ways' must be a list" in body["error"]

    def test_unknown_dataset_keyword_is_400(self, served):
        status, body = served.request("POST", "/v1/query", {
            "point": dict(CELL, workload_kwargs={"bogus": 1})})
        assert status == 400, body
        assert "bogus" in body["error"] and "fdt" in body["error"]

    @pytest.mark.parametrize("field,value", [
        ("wait", "no"), ("wait", 1), ("timeout_s", "abc"),
        ("timeout_s", -1), ("timeout_s", True), ("timeout_s", None),
        ("timeout_s", float("nan")), ("timeout_s", float("inf")),
    ])
    def test_bad_query_option_is_400_naming_the_field(self, served, field,
                                                       value):
        # an uncomputed point: a "wait" taken as true would block here
        cold = dict(CELL, machine_overrides={"accel_freq_ghz": 3.5})
        status, body = served.request("POST", "/v1/query", {
            "point": cold, "wait": True, "timeout_s": 30, field: value})
        assert status == 400, body
        assert field in body["error"]

    def test_malformed_body_is_400(self, served):
        status, body = served.request("POST", "/v1/sweeps", {})
        assert status == 400 and "spec" in body["error"]

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServiceError) as err:
            served.job("job-999999")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            served.job_rows("job-999999")
        assert err.value.status == 404

    def test_unknown_result_hash_is_404(self, served):
        with pytest.raises(ServiceError) as err:
            served.result("deadbeef")
        assert err.value.status == 404


class TestSweepCli:
    def test_bad_machine_axis_exits_2_naming_the_field(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(
            dict(SPEC, machine_axes={"l1.ways": [0]})))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.dse", "--spec", str(spec),
             "--dry-run"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "l1.ways" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_scalar_axis_exits_2_naming_the_axis(self, tmp_path):
        spec = tmp_path / "scalar.json"
        spec.write_text(json.dumps(dict(SPEC, machine_axes={"l1.ways": 8})))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.dse", "--spec", str(spec),
             "--dry-run"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "'l1.ways' must be a list" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestUnixSocket:
    def test_serves_over_unix_socket(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        cfg = ServeConfig(socket_path=sock,
                          store_path=str(tmp_path / "unix.sqlite"),
                          workers=1, inline=True)
        server = SweepServer(cfg)
        server.start()
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_up(timeout_s=30.0)
            assert client.health()["ok"]
            resp = client.query(CELL, wait=True, timeout_s=300.0)
            assert resp["row"]["status"] == "ok"
        finally:
            server.stop()
        assert not os.path.exists(sock)  # clean teardown unlinks it
