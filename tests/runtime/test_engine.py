"""Unit tests for the offload execution engine."""

import numpy as np
import pytest

from repro.accel.cgra import CgraBackend
from repro.accel.inorder import InOrderBackend
from repro.compiler import CompileMode, compile_kernel
from repro.energy import EnergyLedger
from repro.errors import AllocationError
from repro.interface.scheduler import HardwareScheduler
from repro.ir import FLOAT32, Interpreter, Kernel, Loop, LoopVar, MemObject
from repro.mem import MemoryHierarchy, SlabAllocator
from repro.mem.cache import Cache
from repro.params import CacheParams, experiment_machine
from repro.runtime import OffloadEngine, SiteStreams
from repro.runtime.engine import _PRIVATE_VEC_MIN


def saxpy_setup(n=256, mode=CompileMode.DIST, backend="io"):
    A, B, C = (MemObject(x, n, FLOAT32) for x in "ABC")
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] * 2.0 + B[i])])
    kernel = Kernel("saxpy", {"A": A, "B": B, "C": C}, [loop])
    arrays = {
        name: np.ones(n, dtype=np.float32) for name in ("A", "B", "C")
    }
    res = Interpreter(record_trace=True).run(kernel, arrays)
    ck = compile_kernel(kernel, mode, trip_count_hint=n)
    machine = experiment_machine()
    energy = EnergyLedger()
    hierarchy = MemoryHierarchy(machine, energy)
    slab = SlabAllocator()
    allocations = {
        name: slab.allocate(name, obj.size_bytes,
                            align=hierarchy.l3.stripe_bytes)
        for name, obj in kernel.objects.items()
    }
    be = (InOrderBackend(machine.inorder) if backend == "io"
          else CgraBackend(machine.cgra))
    engine = OffloadEngine(machine, hierarchy, energy, slab, be,
                           io_overlap=2.0)
    off = ck.offloads[0]
    from repro.placement import place_partitions

    clusters = place_partitions(off.partitioning, allocations,
                                hierarchy.l3)
    streams = SiteStreams(res.trace)
    return engine, off, clusters, res, streams, energy


class TestSiteStreams:
    def test_streams_partition_by_site(self):
        _, off, _, res, streams, _ = saxpy_setup(32)
        for acc in off.config.partitions[0].accesses:
            if acc.site_ids:
                assert streams.length(acc.site_ids) == 32

    def test_missing_site_is_empty(self):
        streams = SiteStreams([])
        assert streams.stream(99).size == 0
        assert streams.length((99,)) == 0


class TestEngineRun:
    def test_basic_run_advances_time(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert stats.time_ps > 0
        assert stats.accel_iterations == res.inner_iterations
        assert stats.d_a_bytes > 0

    def test_configuration_charged_once(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        s1 = engine.run(off, clusters, res.inner_iterations, 1, streams)
        s2 = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert s1.mmio_bytes > 0
        assert s2.mmio_bytes == 0  # reused configuration

    def test_zero_trips_is_free(self):
        engine, off, clusters, _, streams, _ = saxpy_setup()
        stats = engine.run(off, clusters, 0, 1, streams)
        assert stats.time_ps == 0

    def test_energy_charged(self):
        engine, off, clusters, res, streams, energy = saxpy_setup()
        engine.run(off, clusters, res.inner_iterations, 1, streams)
        by = energy.by_component()
        assert by.get("accel", 0) > 0
        assert by.get("access_unit", 0) > 0

    def test_cgra_faster_than_io(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(backend="io")
        s_io = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(backend="cgra")
        s_f = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert s_f.time_ps < s_io.time_ps

    def test_mono_produces_more_acc_traffic(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(mode=CompileMode.DIST)
        dist = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(mode=CompileMode.MONO_DA)
        mono = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert mono.a_a_bytes >= dist.a_a_bytes

    def test_more_iterations_take_longer(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(n=128)
        small = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(n=512)
        big = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert big.time_ps > small.time_ps


class TestSerialGroups:
    def test_saxpy_has_no_cycles(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        from repro.runtime.engine import _RunContext
        from repro.events import Simulator

        ctx = _RunContext(
            engine=engine, offload=off, clusters=clusters,
            chunk_sizes=[1], site_streams=streams,
            sim=Simulator(), stats=None,
        )
        groups = ctx._serial_groups()
        assert all(len(g) == 1 for g in groups)
        assert sum(len(g) for g in groups) == off.config.num_partitions


def raise_key_error(*args, **kwargs):
    raise KeyError("scheduler bug")


def raise_allocation_error(*args, **kwargs):
    raise AllocationError("access-unit SRAM exhausted")


class TestSchedulerFaults:
    """Only SRAM pressure (``AllocationError``) falls back to an
    uncombined buffer; any other failure inside the hardware scheduler
    is a programming error and propagates."""

    def test_programming_error_propagates(self, monkeypatch):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        monkeypatch.setattr(engine.scheduler, "allocate", raise_key_error)
        with pytest.raises(KeyError, match="scheduler bug"):
            engine.run(off, clusters, res.inner_iterations, 1, streams)

    def test_allocation_error_falls_back_to_uncombined(self, monkeypatch):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        monkeypatch.setattr(engine.scheduler, "allocate",
                            raise_allocation_error)
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert stats.time_ps > 0
        for part in off.config.partitions:
            for acc in part.accesses:
                assert (engine.buffer_key(off, acc.access_id)
                        == 10_000_000 + acc.access_id)

    def test_buffer_count_propagates_programming_error(self, monkeypatch):
        _, off, *_ = saxpy_setup()
        monkeypatch.setattr(HardwareScheduler, "allocate", raise_key_error)
        with pytest.raises(KeyError, match="scheduler bug"):
            off.avg_physical_buffers()


def mono_engine(machine):
    """An engine with Mono-CA's private cache, built like the system
    simulator builds it."""
    energy = EnergyLedger()
    private = Cache(
        CacheParams(size_bytes=machine.mono_private_bytes, ways=4,
                    latency_cycles=1, mshrs=8,
                    line_bytes=machine.l3.line_bytes),
        name="mono_ca_private",
    )
    engine = OffloadEngine(machine, MemoryHierarchy(machine, energy),
                           energy, SlabAllocator(),
                           InOrderBackend(machine.inorder),
                           private_cache=private)
    return engine, energy


class TestPrivateFetch:
    """Mono-CA chunk replay matches the per-access reference loop on
    both sides of the set-parallel threshold."""

    @pytest.mark.parametrize(
        "n", [5, _PRIVATE_VEC_MIN - 1, _PRIVATE_VEC_MIN, 200])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_matches_per_access(self, n, is_write):
        machine = experiment_machine()
        fast, fast_energy = mono_engine(machine)
        ref, ref_energy = mono_engine(machine)
        pc = ref.private_cache
        # element addresses over four times the private cache's lines;
        # both caches start full of dirty lines, so chunks hit, evict
        # and write back
        rng = np.random.default_rng(29)
        count = 200 + 6 * n
        addrs = (np.int64(0x1000_0000)
                 + rng.integers(0, 4 * pc.num_sets * pc.ways, count)
                 .astype(np.int64) * 64
                 + rng.integers(0, 16, count).astype(np.int64) * 4)
        for engine in (fast, ref):
            for addr in addrs[:200].tolist():
                engine._line_fetch(0, addr, True)
        fast_lat = ref_lat = 0
        for c in range(6):
            chunk = addrs[200 + c * n:200 + (c + 1) * n]
            cluster = c % machine.l3_clusters
            fast_lat += fast._private_fetch_many(cluster, chunk, is_write)
            ref_lat += sum(ref._line_fetch(cluster, addr, is_write)
                           for addr in chunk.tolist())
        assert fast_lat == ref_lat
        assert fast_energy.by_event() == ref_energy.by_event()
        fh, rh = fast.hierarchy, ref.hierarchy
        assert fh.stats().as_dict() == rh.stats().as_dict()
        assert fh.movement_bytes == rh.movement_bytes
        assert fh.traffic.breakdown() == rh.traffic.breakdown()
        assert fh.dram.reads == rh.dram.reads
        assert fh.dram.writes == rh.dram.writes
        for a, b in zip([fast.private_cache, *fh.l3.slices],
                        [pc, *rh.l3.slices]):
            assert (a.accesses, a.hits, a.misses, a.writebacks) == (
                b.accesses, b.hits, b.misses, b.writebacks)
            # LRU order and dirty bits, not just membership
            assert [list(s.items()) for s in a._sets] == [
                list(s.items()) for s in b._sets]
        assert pc.hits > 0 and pc.writebacks > 0
