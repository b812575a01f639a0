"""Spill/eviction coverage: population past the bound, bit-identical
ColumnarTrace round-trips through disk, and eviction safety for a
worker still holding a replayed entry."""

import pytest

from repro.ir.trace import ColumnarTrace
from repro.obs import OBS
from repro.params import experiment_machine
from repro.sim.system import simulate_workload
from repro.sim.tracecache import TraceCache
from repro.testing import generate_case


@pytest.fixture(scope="module")
def machine():
    return experiment_machine()


def run_through(case, cache, machine, config="ooo"):
    return simulate_workload(
        case.instance(), config, machine=machine,
        trace_cache=cache, trace_key=(case.name, "spill"),
    )


def cell_sig(run):
    return (
        run.time_ps, run.insts, run.mem_ops, run.energy_nj,
        run.movement_bytes, run.mmio_bytes, run.accel_iterations,
        run.validated, run.cache_stats, run.traffic_breakdown,
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
    info = entry.info
    replay = (
        entry.validated, info.short, info.host_insts_per_call,
        info.serial_fraction,
        sorted((name, obj.shape, obj.dtype)
               for name, obj in info.objects.items()),
    )
    return cols, replay


class TestPopulatePastBound:
    def test_every_evicted_entry_remains_retrievable(self, tmp_path,
                                                     machine):
        cache = TraceCache(max_entries=2, spill_dir=str(tmp_path))
        cases = [
            generate_case(100 + i, shape="elementwise") for i in range(6)
        ]
        for case in cases:
            run_through(case, cache, machine)
        assert len(cache) == 2          # bound respected...
        assert cache.spills == 4        # ...everything else spilled
        for case in cases:
            assert cache.get(case.name, "spill") is not None
        assert cache.disk_loads > 0

    def test_unspilled_cache_forgets_evicted(self, machine):
        cache = TraceCache(max_entries=1)  # no spill_dir
        a = generate_case(100, shape="gather")
        b = generate_case(101, shape="scatter")
        run_through(a, cache, machine)
        run_through(b, cache, machine)
        assert cache.get(a.name, "spill") is None
        assert cache.get(b.name, "spill") is not None


class TestForeignSpillFiles:
    def test_fresh_cache_reinterprets_instead_of_loading(self, tmp_path,
                                                         machine):
        """Spill files another cache wrote are never read back: a new
        cache on the same directory misses, and its cell re-interprets
        to the same numbers."""
        first = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        case = generate_case(7, shape="multi")
        original = run_through(case, first, machine)
        run_through(generate_case(8, shape="elementwise"), first, machine)
        assert first.spills == 1
        second = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        OBS.reset()
        again = run_through(case, second, machine)
        assert (second.misses, second.hits, second.disk_loads) == (1, 0, 0)
        assert OBS.counter("interp.invocations") == len(case.calls)
        assert cell_sig(again) == cell_sig(original)


class TestSpillRoundTrip:
    @pytest.mark.parametrize("shape", ["nested", "guarded", "multi"])
    def test_columnar_trace_bit_identical_after_spill(self, tmp_path,
                                                      machine, shape):
        cache = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        case = generate_case(7, shape=shape)
        run_through(case, cache, machine)
        before = columns_of(cache.get(case.name, "spill"))
        # evict (spilling to disk), then fault the entry back in
        run_through(generate_case(8, shape="elementwise"), cache, machine)
        reloaded = cache.get(case.name, "spill")
        assert reloaded is not None and cache.disk_loads == 1
        assert columns_of(reloaded) == before

    def test_replay_after_spill_matches_original_run(self, tmp_path,
                                                     machine):
        cache = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        case = generate_case(7, shape="multi")
        first = run_through(case, cache, machine, config="dist_da_f")
        run_through(generate_case(8, shape="elementwise"), cache, machine)
        replayed = run_through(case, cache, machine, config="dist_da_f")
        assert cell_sig(replayed) == cell_sig(first)


class TestEvictionDoesNotCorruptHeldEntries:
    def test_held_entry_survives_eviction_of_its_key(self, tmp_path,
                                                     machine):
        """A worker that fetched an entry keeps a live reference while
        other workloads churn the cache past its bound; the held entry's
        traces and arrays must stay bit-identical throughout."""
        cache = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        case = generate_case(7, shape="guarded")
        run_through(case, cache, machine)
        held = cache.get(case.name, "spill")
        snapshot = columns_of(held)
        # churn: evict + spill the held key, then pull other keys through
        for i in range(3):
            run_through(generate_case(50 + i, shape="elementwise"),
                        cache, machine)
        assert cache.get(case.name, "spill") is not held  # disk copy
        assert columns_of(held) == snapshot

    def test_held_entry_still_replays_correctly(self, tmp_path, machine):
        """Replaying through the held (evicted) entry's views still gives
        the same simulation numbers as a fresh interpretation."""
        cache = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        case = generate_case(7, shape="nested")
        first = run_through(case, cache, machine)
        held = cache.get(case.name, "spill")
        run_through(generate_case(9, shape="elementwise"), cache, machine)
        # hand the held entry back through a private single-entry cache
        private = TraceCache(max_entries=1)
        private.put(held)
        replayed = run_through(case, private, machine)
        assert cell_sig(replayed) == cell_sig(first)
        fresh = simulate_workload(case.instance(), "ooo", machine=machine)
        assert cell_sig(fresh) == cell_sig(first)

    def test_final_arrays_are_isolated_per_replayer(self, tmp_path,
                                                    machine):
        """A replay touches no arrays: a replaying worker scribbling over
        its own instance changes neither the cached entry nor a later
        replay."""
        cache = TraceCache(max_entries=2, spill_dir=str(tmp_path))
        case = generate_case(7, shape="reduction")
        first = run_through(case, cache, machine)
        before = columns_of(cache.get(case.name, "spill"))
        instance = case.instance()
        initial = {k: v.copy() for k, v in instance.arrays.items()}
        run = simulate_workload(
            instance, "ooo", machine=machine,
            trace_cache=cache, trace_key=(case.name, "spill"),
        )
        assert run.validated
        # the hit neither ran nor restored anything into the instance
        for name, arr in instance.arrays.items():
            assert arr.tobytes() == initial[name].tobytes()
        for arr in instance.arrays.values():
            arr.fill(-1.0)  # worker scribbles over its private copy
        assert columns_of(cache.get(case.name, "spill")) == before
        later = run_through(case, cache, machine)
        assert cell_sig(later) == cell_sig(first)
