"""Unit tests for the offload execution engine."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import envcfg
from repro.accel.base import PartitionProfile
from repro.accel.cgra import CgraBackend
from repro.accel.inorder import InOrderBackend
from repro.compiler import CompileMode, compile_kernel
from repro.energy import EnergyLedger
from repro.errors import AllocationError
from repro.events import cycles_to_ps
from repro.interface.config import AccessKind
from repro.interface.scheduler import HardwareScheduler
from repro.ir import FLOAT32, Interpreter, Kernel, Loop, LoopVar, MemObject
from repro.mem import MemoryHierarchy, SlabAllocator
from repro.mem.cache import Cache
from repro.obs import OBS
from repro.params import experiment_machine
from repro.runtime import OffloadEngine, SiteStreams
from repro.runtime.engine import (
    FSM_OVERLAP,
    FSM_PS_PER_CYCLE,
    FSM_PS_PER_LINE,
    MEM_FREQ_GHZ,
    PS_PER_MEM_CYCLE,
    TARGET_CHUNKS,
)
from repro.runtime.streams import KeptPlan
from repro.workloads import pointer_chase


def saxpy_setup(n=256, mode=CompileMode.DIST, backend="io", machine=None):
    A, B, C = (MemObject(x, n, FLOAT32) for x in "ABC")
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] * 2.0 + B[i])])
    kernel = Kernel("saxpy", {"A": A, "B": B, "C": C}, [loop])
    arrays = {
        name: np.ones(n, dtype=np.float32) for name in ("A", "B", "C")
    }
    return kernel_setup(kernel, arrays, n, mode, backend, machine)


def kernel_setup(kernel, arrays, n, mode=CompileMode.DIST, backend="io",
                 machine=None):
    """Interpret ``kernel`` on ``arrays`` and build an engine for its
    first offload, as the system simulator does."""
    res = Interpreter(record_trace=True).run(kernel, arrays)
    ck = compile_kernel(kernel, mode, trip_count_hint=n)
    machine = machine or experiment_machine()
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


def wide_line_machine(line_bytes=128):
    """The experiment machine with every cache level at ``line_bytes``,
    set in one ``replace``: the line sizes must agree at every step."""
    m = experiment_machine()
    return replace(m, l1=replace(m.l1, line_bytes=line_bytes),
                   l2=replace(m.l2, line_bytes=line_bytes),
                   l3=replace(m.l3, line_bytes=line_bytes))


class TestLineSize:
    def test_stream_fsms_move_whole_machine_lines(self, monkeypatch):
        """On a 128 B-line machine each fill/drain fetches every 128 B
        line of its chunk once, and the Figure 9 tally counts 128 B per
        fetched line; the per-line reference path agrees. A chunk's
        lines are its segments' lines, which lie next to each other in
        the bound walk."""
        machine = wide_line_machine()
        fetches = []
        real = MemoryHierarchy.accel_line_fetch_batch

        def spy(self, walk, c, is_write, tally):
            lines, _, starts, cuts = walk
            fetches.append(lines[starts[cuts[c]]:starts[cuts[c + 1]]])
            return real(self, walk, c, is_write, tally)

        monkeypatch.setattr(MemoryHierarchy, "accel_line_fetch_batch", spy)
        monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
        # 64 floats per chunk: two 128 B lines per stream chunk
        engine, off, clusters, res, streams, energy = saxpy_setup(
            n=8192, machine=machine)
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert max(len(f) for f in fetches) > 1
        for f in fetches:
            lines = [addr // 128 for addr in f]
            assert len(set(lines)) == len(lines)
        # saxpy's accesses are all streams
        assert stats.d_a_bytes == 128 * sum(len(f) for f in fetches)

        monkeypatch.setenv(envcfg.REPRO_REFERENCE.name, "1")
        ref, off, clusters, res, streams, ref_energy = saxpy_setup(
            n=8192, machine=machine)
        ref_stats = ref.run(off, clusters, res.inner_iterations, 1, streams)
        assert ref_stats == stats
        assert ref_energy.by_event() == energy.by_event()
        assert (ref.hierarchy.stats().as_dict()
                == engine.hierarchy.stats().as_dict())
        assert ref.hierarchy.movement_bytes == engine.hierarchy.movement_bytes


class TestSerialGroups:
    def test_saxpy_has_no_cycles(self):
        _, off, _, _, _, _ = saxpy_setup()
        groups = off.config.channel_components()
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
        """Each failed allocation and each lookup that falls back to an
        uncombined id counts under its reason code, and only then."""
        engine, off, clusters, res, streams, _ = saxpy_setup()
        accesses = [acc for part in off.config.partitions
                    for acc in part.accesses]
        OBS.reset()
        engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert not [name for name in OBS.counters
                    if name.startswith("engine.fallback.")]
        engine, off, clusters, res, streams, _ = saxpy_setup()
        monkeypatch.setattr(engine.scheduler, "allocate",
                            raise_allocation_error)
        OBS.reset()
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert stats.time_ps > 0
        assert OBS.counter("engine.fallback.sram-pressure") == len(accesses)
        # the run looked up each buffered stream's buffer once
        looked_up = OBS.counter("engine.fallback.unmapped-access")
        assert looked_up == sum(acc.kind in (AccessKind.STREAM_READ,
                                             AccessKind.STREAM_WRITE)
                                for acc in accesses)
        for acc in accesses:
            assert (engine.buffer_key(off, acc.access_id)
                    == 10_000_000 + acc.access_id)
        assert (OBS.counter("engine.fallback.unmapped-access")
                == looked_up + len(accesses))
        OBS.reset()

    def test_buffer_count_propagates_programming_error(self, monkeypatch):
        _, off, *_ = saxpy_setup()
        monkeypatch.setattr(HardwareScheduler, "allocate", raise_key_error)
        with pytest.raises(KeyError, match="scheduler bug"):
            off.avg_physical_buffers()


def mono_engine(machine):
    """An engine on a hierarchy with Mono-CA's private cache, built like
    the system simulator builds it."""
    energy = EnergyLedger()
    engine = OffloadEngine(
        machine, MemoryHierarchy(machine, energy, private_cache=True),
        energy, SlabAllocator(), InOrderBackend(machine.inorder))
    return engine, energy


class TestPrivateFetch:
    """Mono-CA chunk replay, a walk on the private cache's and the
    slices' set dicts into a tally charged once, matches the per-access
    reference loop at short and long chunk lengths."""

    @pytest.mark.parametrize("n", [5, 15, 16, 200])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_matches_per_access(self, monkeypatch, n, is_write):
        machine = experiment_machine()
        fast, fast_energy = mono_engine(machine)
        ref, ref_energy = mono_engine(machine)
        fh, rh = fast.hierarchy, ref.hierarchy
        pc = rh.private
        # element addresses in same-line runs over four times the
        # private cache's lines; both caches start full of dirty lines,
        # so chunks hit, evict and write back
        rng = np.random.default_rng(29)
        lines = rng.integers(0, 4 * pc.num_sets * pc.ways, 200 + 6 * n)
        runs = rng.integers(1, 4, lines.size)
        addrs = (np.int64(0x1000_0000)
                 + np.repeat(lines, runs).astype(np.int64) * 64
                 + rng.integers(0, 16, int(runs.sum())) * 4)
        warm, addrs = addrs[:200], addrs[200:200 + 6 * n]
        for engine in (fast, ref):
            for addr in warm.tolist():
                engine._line_fetch(0, addr, True)
        # one plan of six n-element chunks from rotating clusters
        cuts = tuple(range(0, 6 * n + 1, n))
        locals_ = [c % machine.l3_clusters for c in range(6)]
        l3 = fh.l3
        kept = KeptPlan((addrs, cuts), (0, l3.slices[0].line_shift,
                                        l3.stripe_bytes, l3.num_clusters),
                        False, 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("batch walk called Cache.access")

        tally = fh.accel_tally()
        with monkeypatch.context() as mp:
            mp.setattr(Cache, "access", forbidden)
            # one cycle per access, and each chunk's heads from its
            # cluster
            tally.private_acc += kept.accesses
            fast_lat = kept.accesses + sum(
                fh.l3_demand_batch(kept.private_steps(local), c, is_write,
                                   tally)
                for c, local in enumerate(locals_))
        fh.charge_accel(tally)
        ref_lat = sum(ref._elem_access(cluster, addr, is_write, 4)
                      for cluster, lo, hi in zip(locals_, cuts, cuts[1:])
                      for addr in addrs[lo:hi].tolist())
        assert fast_lat == ref_lat
        assert fast_energy.by_event() == ref_energy.by_event()
        assert fh.stats().as_dict() == rh.stats().as_dict()
        assert fh.movement_bytes == rh.movement_bytes
        assert fh.traffic.breakdown() == rh.traffic.breakdown()
        assert fh.dram.reads == rh.dram.reads
        assert fh.dram.writes == rh.dram.writes
        for a, b in zip([fh.private, *fh.l3.slices],
                        [pc, *rh.l3.slices]):
            assert (a.accesses, a.hits, a.misses, a.writebacks) == (
                b.accesses, b.hits, b.misses, b.writebacks)
            # LRU order and dirty bits, not just membership
            assert [list(s.items()) for s in a._sets] == [
                list(s.items()) for s in b._sets]
        assert pc.hits > 0 and pc.writebacks > 0


class TestChunkDelay:
    """A process turns a chunk's memory cycles into its delay as
    ``round(cycles * PS_PER_MEM_CYCLE)``, which must equal
    ``cycles_to_ps(cycles, MEM_FREQ_GHZ)`` bit for bit."""

    def test_memory_clock_is_a_power_of_two(self):
        mantissa, _ = math.frexp(MEM_FREQ_GHZ)
        assert mantissa == 0.5, (
            "chunk delays scale by PS_PER_MEM_CYCLE = 1000 / MEM_FREQ_GHZ, "
            "which equals cycles_to_ps's multiply-then-divide only when "
            "dividing by MEM_FREQ_GHZ is exact, that is, when it is a "
            "power of two")

    @settings(max_examples=500, deadline=None)
    @given(cycles=st.one_of(
        st.floats(min_value=0, max_value=1e12),
        # quarter cycles (a fill's latency over FSM_OVERLAP, plus its
        # lines), and odd eighths, whose delay is an exact .5 tie
        st.integers(0, 2 ** 40).map(lambda k: k / 4),
        st.integers(0, 2 ** 40).map(lambda k: (2 * k + 1) / 8),
        # sums of integer cycles over an accelerator's overlap
        st.tuples(st.integers(0, 2 ** 40), st.sampled_from(
            (1.0, 2.0, 4.0, 6.0, 12.0))).map(lambda t: t[0] / t[1]),
    ))
    def test_float_cycles(self, cycles):
        assert round(cycles * PS_PER_MEM_CYCLE) == cycles_to_ps(
            cycles, MEM_FREQ_GHZ)

    def test_ties_round_to_even_like_cycles_to_ps(self):
        for k in range(64):
            cycles = (2 * k + 1) / 8
            assert (cycles * PS_PER_MEM_CYCLE) % 1 == 0.5
            assert round(cycles * PS_PER_MEM_CYCLE) == cycles_to_ps(
                cycles, MEM_FREQ_GHZ)

    @settings(max_examples=500, deadline=None)
    @given(cycles=st.integers(0, 2 ** 53))
    def test_integer_cycles(self, cycles):
        assert round(cycles * PS_PER_MEM_CYCLE) == cycles_to_ps(
            cycles, MEM_FREQ_GHZ)

    @settings(max_examples=500, deadline=None)
    @given(cycles=st.integers(0, 2 ** 45), lines=st.integers(0, 2 ** 43))
    def test_fill_and_drain_delays_in_integers(self, cycles, lines):
        """A fill's or drain's chunk of ``cycles`` latency and ``lines``
        lines takes ``FSM_PS_PER_CYCLE * cycles + FSM_PS_PER_LINE *
        lines`` ps, the integer form of its float delay (every term
        below 2**53)."""
        assert FSM_PS_PER_CYCLE * FSM_OVERLAP == PS_PER_MEM_CYCLE
        assert FSM_PS_PER_LINE == PS_PER_MEM_CYCLE
        assert (FSM_PS_PER_CYCLE * cycles + FSM_PS_PER_LINE * lines
                == round((cycles / FSM_OVERLAP + lines) * PS_PER_MEM_CYCLE))


def pchase_setup(steps):
    """A pointer chase over 64 nodes: a serial dependence cycle, which
    runs as one fused group of partitions."""
    kernel = pointer_chase.build_kernel(64, steps)
    arrays = {"next": pointer_chase.make_cycle(64, np.random.default_rng(1)),
              "cur": np.zeros(1, dtype=np.int64)}
    return kernel_setup(kernel, arrays, steps)


@pytest.mark.parametrize("setup", (saxpy_setup, pchase_setup),
                         ids=("partitions", "fused-group"))
def test_remainder_chunk_charges_per_chunk_sums(monkeypatch, setup):
    """1,000 trips run as 142 chunks of 7 and one of 6. What a partition
    or a fused group charges once from its chunk sizes, its operand
    messages, Fig-9 bytes and compute energy, equals the sum over its
    chunks computed here."""
    trips = 1000
    engine, off, clusters, res, streams, _ = setup(trips)
    assert res.inner_iterations == trips
    sizes = [7] * 142 + [6]
    assert len(sizes) == -(-trips // (trips // TARGET_CHUNKS))
    traffic = engine.hierarchy.traffic
    record = traffic.record
    recorded = Counter()

    def counting_record(tclass, src, dst, payload_bytes, count=1):
        recorded[(tclass.name, src, dst, payload_bytes)] += count
        return record(tclass, src, dst, payload_bytes, count=count)

    monkeypatch.setattr(traffic, "record", counting_record)
    stats = engine.run(off, clusters, trips, 1, streams)

    config = off.config
    messages = Counter()
    a_a = intra = 0
    energy = EnergyLedger()
    for group in config.channel_components():
        fused = len(group) > 1
        for iters in sizes:
            for index in group:
                part = config.partition(index)
                profile = PartitionProfile.from_config(part)
                engine.backend.charge_iteration(profile, energy, count=iters)
                intra += (profile.buffer_reads + profile.buffer_writes) \
                    * iters * 4
                for ch_id in part.produces:
                    ch = config.channel(ch_id)
                    src = clusters[index]
                    dst = clusters[ch.consumer_partition]
                    payload = ch.payload_bytes * iters
                    messages[("ACC_DATA", src, dst, payload)] += 1
                    if not fused:
                        messages[("ACC_CTRL", dst, src, 0)] += 1
                    a_a += payload
    operands = Counter({shape: n for shape, n in recorded.items()
                        if shape[0] in ("ACC_DATA", "ACC_CTRL")})
    assert messages and operands == messages
    assert stats.a_a_bytes == a_a
    assert stats.intra_bytes == intra
    # the compute energy: only partitions charge the accel component
    got = {k: v for k, v in engine.energy.counts().items()
           if k[0] == "accel"}
    assert got == energy.counts()
