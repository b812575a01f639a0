"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They check the harness, not the program: the wrappers leave no trace
behind and change no result, span self times add up, inputs are a
function of the seed, every workload runs end to end at tiny scale, and
``BENCHMARK.json`` names exactly what the harness prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, cell_key, digest, point_key)

#: simulated-work counts that must repeat exactly for one seed
COUNTS = ("events.executed", "events.fastforwards", "mem.l1_accesses",
          "mem.l2_accesses", "mem.l3_accesses", "mem.acp_accesses",
          "mem.dram_accesses", "runtime.offload_runs",
          "sim.tracecache.hits", "ir.trace_elems")


def _owners():
    from repro.workloads import ALL_WORKLOADS

    pairs = [(type(w), "build") for w in ALL_WORKLOADS.values()]
    for _layer, target, attrs in tracing.LAYERS:
        owner = tracing._resolve(target)
        pairs += [(owner, attr) for attr in attrs]
    return pairs


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _simulate_cells():
    from repro.params import experiment_machine
    from repro.sim.system import simulate_workload
    from repro.testing.golden import cell_record
    from repro.workloads import ALL_WORKLOADS

    machine = experiment_machine()
    return {
        cell_key(w, c): digest(cell_record(simulate_workload(
            ALL_WORKLOADS[w].build("tiny"), c, machine=machine)))
        for w in ("fdt", "pr", "nw") for c in ("ooo", "dist_da_f", "mono_ca")
    }


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrappers_restore_the_original_functions():
    before = {(o, a): _current(o, a) for o, a in _owners()}
    tracer = tracing.Tracer()
    with tracer:
        assert all(_current(o, a) is not f for (o, a), f in before.items())
    assert all(_current(o, a) is f for (o, a), f in before.items())


def test_traced_digests_equal_untraced():
    untraced = _simulate_cells()
    with tracing.Tracer() as tracer:
        traced = _simulate_cells()
    assert traced == untraced
    layers = {s[1] for s in tracer.spans}
    assert {"sim.system", "ir.interp", "runtime.engine",
            "sim.ooo", "workloads.build"} <= layers


def test_child_self_times_fit_in_their_parent():
    with tracing.Tracer() as tracer:
        _simulate_cells()
    spans = {s[0]: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        assert s[6] >= -1e-9
        if s[2] is not None:
            children.setdefault(s[2], []).append(s)
    for parent_id, kids in children.items():
        parent = spans[parent_id]
        assert sum(k[6] for k in kids) <= parent[5] - parent[4] + 1e-9
        assert all(parent[4] <= k[4] and k[5] <= parent[5] for k in kids)
        assert all(k[3] == parent[3] for k in kids)


def test_covered_seconds_merges_overlapping_top_level_spans():
    spans = [(1, "a", None, None, 0.0, 2.0, 0), (2, "b", 1, None, 0.5, 1.0, 0),
             (3, "c", None, None, 1.5, 3.0, 0),
             (4, "d", None, None, 5.0, 9.0, 0)]
    assert tracing.covered_seconds(spans, 0.0, 6.0) == pytest.approx(4.0)


def test_ref_clock_converts_each_stretch_at_the_kernel_speed_around_it(
        monkeypatch):
    plain = refclock.RefClock(calibrate=False)
    plain.start()
    sum(range(300000))
    plain.tick()
    assert plain.ref_s == plain.cpu_s > 0

    clock = refclock.RefClock()
    ref = refclock.CAL_REF_S
    kernels = iter([ref, ref / 2, ref / 2])
    monkeypatch.setattr(clock, "_time_kernel", lambda: next(kernels))
    clock.start()
    sum(range(300000))
    clock.tick("progress line")
    first = clock.cpu_s
    sum(range(300000))
    clock.tick()
    # the host runs the kernel twice as fast from the first tick on
    assert clock.ref_s == pytest.approx(
        first * 2 / 1.5 + (clock.cpu_s - first) * 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    cls = WORKLOADS[name]
    assert cls.inputs(3, "small", 15) == cls.inputs(3, "small", 15)
    drawn = {json.dumps(cls.inputs(seed, "small", 15)) for seed in range(20)}
    assert len(drawn) >= 8


def test_every_seed_draws_cells_with_expected_digests():
    from repro.dse.spec import SweepSpec

    with open(os.path.join(BENCH, "expected.json")) as f:
        expected = json.load(f)
    for seed in range(20):
        for scale in ("tiny", "small"):
            order = WORKLOADS["paper-matrix"].inputs(seed, scale, 15)
            assert sorted(order["passes"][0]) == sorted(
                {k.split("/")[0] for k in expected[f"paper-matrix@{scale}"]})
            sweep = WORKLOADS["machine-sweep"].inputs(seed, scale, 15)
            keys = [point_key(p.as_dict()) for p in
                    SweepSpec.from_dict(sweep["passes"][0]).points()]
            assert len(keys) == 48
            assert set(keys) <= set(expected[f"machine-sweep@{scale}"])
            fresh = WORKLOADS["fresh-traces"].inputs(seed, scale, 15)
            keys = [cell_key(w, "ooo", kwargs=kw)
                    for w, kw in fresh["passes"][0]]
            assert len(set(keys)) == 24
            assert set(keys) <= set(expected[f"fresh-traces@{scale}"])


def test_benchmark_json_names_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: cls.WHY for name, cls in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_units()
    with open(os.path.join(BENCH, "predictions.json")) as f:
        predictions = json.load(f)
    rows = {k: v for k, v in predictions.items() if not k.startswith("_")}
    assert set(rows) == set(tracing.LAYER_NAMES)
    for row in rows.values():
        assert set(row["moves"]) <= set(run.END_TO_END)
        assert {row["most"], row["little"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_of_each_workload(name):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                "--scale", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    results = []
    for _ in range(2):
        proc = _run("--workload", "machine-sweep", "--seed", "5",
                    "--seconds", "1", "--scale", "tiny", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert set(first) == set(run.per_layer_units())
    for name in COUNTS + tuple(k for k in first if k.endswith(".calls")):
        assert first[name]["value"] == second[name]["value"], name
    assert first["events.executed"]["value"] > 0
    assert first["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "machine-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
