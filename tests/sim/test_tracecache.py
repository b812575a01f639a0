"""Trace cache: storage semantics and cross-config replay fidelity."""

import pickle

import numpy as np
import pytest

from repro.ir import FLOAT32, Kernel, Loop, LoopVar, MemObject
from repro.ir.interp import Interpreter
from repro.ir.trace import ColumnarTrace
from repro.mem.hierarchy import latency_table
from repro.obs import OBS
from repro.params import experiment_machine
from repro.runtime import SiteStreams
from repro.sim import simulate_workload
from repro.sim.tracecache import (
    DatasetInfo,
    FunctionalCallRecord,
    TraceCache,
    WorkloadTrace,
)
from repro.testing import generate_case
from repro.workloads import ALL_WORKLOADS


def vec_add_kernel(n=16):
    A = MemObject("A", n, FLOAT32)
    B = MemObject("B", n, FLOAT32)
    C = MemObject("C", n, FLOAT32)
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] + B[i])])
    return Kernel("vadd", {"A": A, "B": B, "C": C}, [loop], outputs=["C"])


def make_record(n=16):
    kernel = vec_add_kernel(n)
    arrays = {
        name: np.arange(obj.num_elements, dtype=np.float32).reshape(obj.shape)
        for name, obj in kernel.objects.items()
    }
    res = Interpreter(record_trace=True).run(kernel, arrays, {})
    return kernel, arrays, FunctionalCallRecord.from_interp(kernel, {}, res), res


def make_trace(workload="wl", scale="tiny", n=16):
    kernel, _, record, _ = make_record(n)
    info = DatasetInfo(short=workload[:3], objects=kernel.objects,
                       host_insts_per_call=50, serial_fraction=0.25)
    return WorkloadTrace(
        workload=workload, scale=scale, calls=[record], info=info,
        validated=True,
    )


def replay_fields(entry):
    """What a cache hit hands replay in place of a built instance."""
    info = entry.info
    objects = sorted(
        (name, obj.shape, obj.dtype, obj.size_bytes)
        for name, obj in info.objects.items()
    )
    return (entry.validated, info.short, objects,
            info.host_insts_per_call, info.serial_fraction)


class TestFunctionalCallRecord:
    """The record is what the system simulator consumes per call."""

    def test_view_matches_interp_result(self):
        _, _, record, res = make_record()
        assert record.counts == res.counts
        assert list(record.trace) == list(res.trace)
        assert record.inner_iterations == res.inner_iterations
        assert record.inner_iters_by_index == res.inner_iters_by_loop
        assert (record.inner_invocations_by_index
                == res.inner_invocations_by_loop)

    def test_view_survives_pickle(self):
        _, _, record, res = make_record()
        clone = pickle.loads(pickle.dumps(record))
        # maps are keyed by structural loop position, so they survive
        # pickling unchanged and stay valid for the clone's own loops
        loops = clone.kernel.innermost_loops()
        assert set(clone.inner_iters_by_index) == set(range(len(loops)))
        assert clone.inner_iters_by_index == res.inner_iters_by_loop
        assert clone.counts == res.counts
        assert list(clone.trace) == list(res.trace)


#: (slab base, line shift, stripe bytes, clusters) of a site's plans
LAYOUT = (0x1000_0000, 6, 4096, 8)


class TestSiteStreamMemo:
    def test_memo_equals_fresh_split(self):
        _, _, record, res = make_record()
        memo = record.site_streams()
        fresh = SiteStreams(res.trace)
        assert memo.sites() == fresh.sites() and memo.sites()
        for site in fresh.sites():
            np.testing.assert_array_equal(memo.stream(site),
                                          fresh.stream(site))

    def test_computed_once(self):
        _, _, record, _ = make_record()
        assert record.site_streams() is record.site_streams()

    def test_streams_are_read_only(self):
        _, _, record, _ = make_record()
        streams = record.site_streams()
        site = streams.sites()[0]
        with pytest.raises(ValueError):
            streams.stream(site)[0] = 99

    def test_pickled_record_holds_no_streams(self):
        _, _, record, _ = make_record()
        bare = pickle.dumps(record)
        streams = record.site_streams()
        assert pickle.dumps(record) == bare
        clone = pickle.loads(bare)
        assert clone._streams is None
        # a reloaded record recomputes the same streams on first use
        again = clone.site_streams()
        assert again is not streams
        for site in streams.sites():
            np.testing.assert_array_equal(again.stream(site),
                                          streams.stream(site))

    def test_plans_are_read_only_and_never_pickled(self):
        """Plans are read-only, and nothing a record keeps for its
        replays (plans, walks, chunk homes, walk costs and chunk
        latencies) enters its pickle."""
        _, _, record, _ = make_record()
        bare = pickle.dumps(record)
        streams = record.site_streams()
        site = streams.sites()[0]
        table = latency_table(experiment_machine())
        for lines in (True, False):  # a line plan and an address plan
            kept = streams.kept([site], LAYOUT, 4, 4, lines)
            with pytest.raises(ValueError):
                kept.plan[0][0] = 0
            assert kept.costs(0, False).free(table, 1, 1).size == 4
            assert kept.walk() is not None and kept._homes
        assert len(streams._kept[site][-1][1]) == 2
        assert pickle.dumps(record) == bare

    def test_a_site_keeps_one_layouts_plans(self):
        """A site keeps the plans of its two most recently used layouts
        (slab base, line shift, stripe, clusters): a lookup under a
        third drops the least recently used one's, so replays on many
        machines do not pile them up. A layout seen again after it was
        dropped is rebuilt with the same values, and a layout that
        differs from a kept one only in the L3 shares its plan."""
        _, _, record, _ = make_record()
        streams = record.site_streams()
        site = streams.sites()[0]
        a, b, c = LAYOUT, (0x2000_0000,) + LAYOUT[1:], LAYOUT[:1] + (
            7,) + LAYOUT[2:]

        def kept(layout, lines=True):
            return streams.kept([site], layout, 4, 4, lines)

        def layouts():
            return [layout for layout, _ in streams._kept[site]]

        first = kept(a)
        assert kept(a) is first
        kept(a, lines=False)
        assert len(streams._kept[site][-1][1]) == 2
        kept(b)
        assert layouts() == [a, b]
        assert kept(a) is first
        assert layouts() == [b, a]
        kept(c)
        assert layouts() == [a, c]
        kept(b)
        assert layouts() == [c, b]
        again = kept(a)
        assert again is not first
        np.testing.assert_array_equal(again.plan[0], first.plan[0])
        assert again.plan[1] == first.plan[1]
        # another stripe and cluster count: the walks differ, the plan
        # is the same
        other_l3 = kept(LAYOUT[:2] + (8192, 4))
        assert other_l3 is not again and other_l3.plan is again.plan


class TestTraceCache:
    def test_put_get_roundtrip(self):
        cache = TraceCache(max_entries=2)
        trace = make_trace()
        cache.put(trace)
        assert cache.get("wl", "tiny") is trace
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_counted(self):
        cache = TraceCache(max_entries=2)
        assert cache.get("nope", "tiny") is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_lru_eviction_without_spill(self):
        cache = TraceCache(max_entries=1)
        cache.put(make_trace("a"))
        cache.put(make_trace("b"))
        assert len(cache) == 1
        assert cache.get("a", "tiny") is None
        assert cache.get("b", "tiny") is not None


def run_sig(run):
    return (
        run.time_ps, run.insts, run.mem_ops, run.energy_nj,
        run.movement_bytes, run.mmio_bytes, run.accel_iterations,
        run.validated, run.traffic_breakdown, run.cache_stats,
    )


class TestReplayEquivalence:
    """ISSUE acceptance: trace reuse must not change any metric, and the
    interpreter must run only for the first configuration."""

    @pytest.fixture(scope="class")
    def machine(self):
        return experiment_machine()

    @pytest.mark.parametrize("workload", ["fdt", "bfs"])
    def test_replay_is_bit_identical(self, machine, workload):
        configs = ("ooo", "mono_da_io", "dist_da_f")
        fresh = {
            c: simulate_workload(
                ALL_WORKLOADS[workload].build("tiny"), c, machine=machine
            )
            for c in configs
        }
        cache = TraceCache(max_entries=1)
        cached = {
            c: simulate_workload(
                ALL_WORKLOADS[workload].build("tiny"), c, machine=machine,
                trace_cache=cache, trace_key=(workload, "tiny"),
            )
            for c in configs
        }
        for c in configs:
            assert run_sig(cached[c]) == run_sig(fresh[c]), c
        assert all(r.validated for r in cached.values())

    def test_interpreter_runs_once_per_workload(self, machine):
        OBS.reset()
        cache = TraceCache(max_entries=1)
        for config in ("ooo", "mono_da_io", "dist_da_f"):
            simulate_workload(
                ALL_WORKLOADS["spmv"].build("tiny"), config,
                machine=machine, trace_cache=cache,
                trace_key=("spmv", "tiny"),
            )
        calls_per_run = OBS.counter("interp.invocations")
        assert calls_per_run > 0
        assert OBS.counter("tracecache.hits") == 2
        assert cache.misses == 1 and cache.hits == 2
        # re-run without a cache: every config pays the interpreter
        OBS.reset()
        for config in ("ooo", "mono_da_io", "dist_da_f"):
            simulate_workload(
                ALL_WORKLOADS["spmv"].build("tiny"), config,
                machine=machine,
            )
        assert OBS.counter("interp.invocations") == 3 * calls_per_run


def run_through(case, cache, machine, config="ooo"):
    return simulate_workload(
        case.instance(), config, machine=machine,
        trace_cache=cache, trace_key=(case.name, "tiny"),
    )


def columns_of(entry):
    """Bitwise snapshot of every trace column, plus the verdict and the
    instance fields replay reads from the entry."""
    cols = []
    for record in entry.calls:
        trace = record.trace
        assert isinstance(trace, ColumnarTrace)
        cols.append((
            trace.site.tobytes(), trace.obj_id.tobytes(),
            trace.idx.tobytes(), trace.is_write.tobytes(),
            trace.obj_names,
        ))
    return cols, replay_fields(entry)


class TestEviction:
    """An evicted entry is forgotten; a caller holding it keeps a live,
    unchanged artifact it can still replay."""

    @pytest.fixture(scope="class")
    def machine(self):
        return experiment_machine()

    def test_lru_cache_forgets_evicted_key(self, machine):
        cache = TraceCache(max_entries=1)
        a = generate_case(100, shape="gather")
        b = generate_case(101, shape="scatter")
        run_through(a, cache, machine)
        run_through(b, cache, machine)
        assert cache.get(a.name, "tiny") is None
        assert cache.get(b.name, "tiny") is not None

    def test_held_entry_survives_eviction_of_its_key(self, machine):
        """A caller that fetched an entry keeps a live reference while
        other datasets churn the cache past its bound; the held entry's
        traces and replayed fields stay bit-identical throughout."""
        cache = TraceCache(max_entries=1)
        case = generate_case(7, shape="guarded")
        run_through(case, cache, machine)
        held = cache.get(case.name, "tiny")
        snapshot = columns_of(held)
        for i in range(3):
            run_through(generate_case(50 + i, shape="elementwise"),
                        cache, machine)
        assert cache.get(case.name, "tiny") is None
        assert columns_of(held) == snapshot

    def test_held_entry_still_replays_correctly(self, machine):
        """Replaying the held (evicted) entry gives the same simulation
        numbers as the run that recorded it and as a fresh
        interpretation."""
        cache = TraceCache(max_entries=1)
        case = generate_case(7, shape="nested")
        first = run_through(case, cache, machine)
        held = cache.get(case.name, "tiny")
        run_through(generate_case(9, shape="elementwise"), cache, machine)
        # hand the held entry back through a private single-entry cache
        private = TraceCache(max_entries=1)
        private.put(held)
        replayed = run_through(case, private, machine)
        assert run_sig(replayed) == run_sig(first)
        fresh = simulate_workload(case.instance(), "ooo", machine=machine)
        assert run_sig(fresh) == run_sig(first)

    def test_replay_touches_no_instance_arrays(self, machine):
        """A replay neither runs nor restores anything into the instance
        it is given: a replaying caller scribbling over its own arrays
        changes neither the cached entry nor a later replay."""
        cache = TraceCache(max_entries=1)
        case = generate_case(7, shape="reduction")
        first = run_through(case, cache, machine)
        before = columns_of(cache.get(case.name, "tiny"))
        instance = case.instance()
        initial = {k: v.copy() for k, v in instance.arrays.items()}
        run = simulate_workload(
            instance, "ooo", machine=machine,
            trace_cache=cache, trace_key=(case.name, "tiny"),
        )
        assert run.validated
        for name, arr in instance.arrays.items():
            assert arr.tobytes() == initial[name].tobytes()
        for arr in instance.arrays.values():
            arr.fill(-1.0)
        assert columns_of(cache.get(case.name, "tiny")) == before
        later = run_through(case, cache, machine)
        assert run_sig(later) == run_sig(first)
