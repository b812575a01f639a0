"""Integration tests for the assembled memory hierarchy + NUCA + coherence."""

import sys
import threading
from dataclasses import replace

import pytest

from repro.energy import EnergyLedger
from repro.mem import CoherenceManager, Domain, MemoryHierarchy, NucaL3, SlabAllocator
from repro.mem.hierarchy import LatencyTable
from repro.noc import TrafficClass
from repro.params import PAGE_BYTES, default_machine, experiment_machine


def make_hierarchy():
    energy = EnergyLedger()
    h = MemoryHierarchy(default_machine(), energy)
    return h, energy


class TestNuca:
    def test_range_striped_home_clusters(self):
        l3 = NucaL3(default_machine())
        stripe = l3.stripe_bytes
        assert stripe == default_machine().l3_cluster_bytes
        assert l3.home_cluster(0) == 0
        assert l3.home_cluster(stripe - 1) == 0  # whole stripe is one home
        assert l3.home_cluster(stripe) == 1
        assert l3.home_cluster(8 * stripe) == 0

    def test_slices_sum_to_l3_capacity(self):
        m = default_machine()
        l3 = NucaL3(m)
        total = sum(s.params.size_bytes for s in l3.slices)
        assert total == m.l3.size_bytes

    def test_access_counts_aggregate(self):
        l3 = NucaL3(default_machine())
        l3.access(0, False)
        l3.access(l3.stripe_bytes, False)
        assert l3.accesses == 2
        assert l3.slices[0].accesses == 1
        assert l3.slices[1].accesses == 1


class TestHostPath:
    def test_first_access_misses_everywhere(self):
        h, _ = make_hierarchy()
        lat = h.host_access(0x1000_0000, False)
        s = h.stats()
        assert s.l1 == 1 and s.l2 == 1 and s.l3 == 1 and s.dram == 1
        assert lat > h.machine.dram.latency_cycles

    def test_second_access_l1_hit(self):
        h, _ = make_hierarchy()
        h.host_access(0x1000_0000, False)
        lat = h.host_access(0x1000_0000, False)
        assert lat == h.machine.l1.latency_cycles
        assert h.stats().dram == 1  # no new DRAM access

    def test_energy_charged_per_level(self):
        h, energy = make_hierarchy()
        h.host_access(0x1000_0000, False)
        by = energy.by_component()
        assert by["l1"] > 0 and by["l2"] > 0 and by["l3"] > 0
        assert by["dram"] > 0

    def test_movement_bytes_accumulate(self):
        h, _ = make_hierarchy()
        h.host_access(0x1000_0000, False)
        # DRAM->L3, L3->L2, L2->L1 = 3 line moves
        assert h.movement_bytes == 3 * 64

    def test_stride_prefetcher_reduces_miss_latency(self):
        """A streaming walk should see mostly L2 hits once trained."""
        h, _ = make_hierarchy()
        latencies = [
            h.host_access(0x1000_0000 + i * 64, False, stream_id=7)
            for i in range(32)
        ]
        # after the first few, the prefetcher runs ahead of demand
        trained = latencies[8:]
        cold = latencies[0]
        assert min(trained) < cold
        assert h.l2.prefetch_fills > 0

    def test_writeback_path(self):
        """Dirty lines evicted from L1 land in L2 (writeback counted)."""
        h, _ = make_hierarchy()
        ways, sets = h.l1.ways, h.l1.num_sets
        # fill one set with writes, then overflow it
        for i in range(ways + 2):
            h.host_access(i * sets * 64, True)
        assert h.l1.writebacks > 0


class TestAccelPath:
    def test_accel_access_does_not_touch_l1_l2(self):
        h, _ = make_hierarchy()
        h.accel_elem_access(0, 0x1000_0000, False, 4)
        s = h.stats()
        assert s.l1 == 0 and s.l2 == 0
        assert s.acp == 1 and s.l3 == 1

    def test_acp_hit_is_cheap(self):
        h, _ = make_hierarchy()
        addr = 0x1000_0000
        h.accel_elem_access(0, addr, False, 4)
        lat = h.accel_elem_access(0, addr, False, 4)
        assert lat == 1

    def test_local_cluster_access_no_noc_traffic(self):
        h, _ = make_hierarchy()
        addr = 0x1000_0000  # home cluster 0 (range-striped)
        assert h.l3.home_cluster(addr) == 0
        h.accel_elem_access(0, addr, False, 4)
        hops = h.traffic.byte_hops_by_class
        assert hops[TrafficClass.ACC_CTRL] == 0
        assert hops[TrafficClass.ACC_DATA] == 0
        acc_bytes = h.traffic.class_bytes(TrafficClass.ACC_DATA)
        assert h.traffic.total_byte_hops() > 0  # only the DRAM fill hops
        assert acc_bytes > 0  # element recorded even if local

    def test_remote_cluster_access_crosses_mesh(self):
        h, _ = make_hierarchy()
        addr = 0x1000_0000 + h.l3.stripe_bytes
        assert h.l3.home_cluster(addr) == 1
        h.accel_elem_access(0, addr, False, 4)  # issued from cluster 0
        # request and element reply each crossed the mesh
        hops = h.traffic.byte_hops_by_class
        assert hops[TrafficClass.ACC_CTRL] > 0
        assert hops[TrafficClass.ACC_DATA] > 0


class TestCoherence:
    def test_acquire_flushes_host_copies(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.HOST)
        h.host_access(alloc.base, True)  # dirty in L1
        flushed = mgr.acquire(alloc, Domain.ACCEL, cluster=2)
        assert flushed >= 1
        assert not h.l1.probe(alloc.base)

    def test_same_domain_acquire_free(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=1)
        assert mgr.acquire(alloc, Domain.ACCEL, cluster=1) == 0
        assert mgr.transitions == 0

    def test_cluster_migration_flushes_acp(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        # an element access lands in the ACP at the data's home cluster
        home = h.l3.home_cluster(alloc.base)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=home)
        h.accel_elem_access(home, alloc.base, True, 4)
        assert h.acps[home].probe(alloc.base)
        mgr.acquire(alloc, Domain.ACCEL,
                    cluster=(home + 3) % h.l3.num_clusters)
        assert not h.acps[home].probe(alloc.base)
        assert mgr.transitions == 1

    def test_release_returns_to_host(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=0)
        mgr.release(alloc)
        assert mgr.owner(alloc.obj_id).domain is Domain.HOST

    def test_accel_acquire_requires_cluster(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        with pytest.raises(Exception):
            mgr.acquire(alloc, Domain.ACCEL)


class TestDram:
    def test_dram_counts(self):
        h, _ = make_hierarchy()
        h.host_access(0x2000_0000, False)
        h.host_access(0x2000_0000 + 10 * PAGE_BYTES, False)
        assert h.dram.reads == 2
        assert h.dram.accesses == 2


def with_lines(m, line_bytes):
    """``m`` with every cache level at ``line_bytes``."""
    return replace(m, l1=replace(m.l1, line_bytes=line_bytes),
                   l2=replace(m.l2, line_bytes=line_bytes),
                   l3=replace(m.l3, line_bytes=line_bytes))


#: the experiment machine with one latency parameter changed
CHANGED = {
    "noc": lambda m: replace(m, noc=replace(
        m.noc, hop_latency_cycles=m.noc.hop_latency_cycles + 1)),
    "core clock": lambda m: replace(m, core=replace(
        m.core, freq_ghz=m.core.freq_ghz * 2)),
    "dram latency": lambda m: replace(m, dram=replace(
        m.dram, latency_cycles=m.dram.latency_cycles + 40)),
    "line size": lambda m: with_lines(m, 128),
}


class TestLatencyTable:
    """One static latency table per set of latency parameters (NoC,
    core clock, DRAM latency, line size), read by every hierarchy and
    traffic ledger that has them."""

    def test_machines_with_the_same_parameters_share_one(self):
        base = experiment_machine()
        # the accelerator clock and the L3 size are not among them
        machines = [base, base.with_accel_freq(1.5), replace(
            base, l3=replace(base.l3, size_bytes=base.l3.size_bytes * 2))]
        hierarchies = [MemoryHierarchy(m, EnergyLedger())
                       for m in machines]
        table = hierarchies[0].latency
        for h in hierarchies:
            assert h.latency is table
            assert h.mesh is table.messages.mesh
            assert h.traffic._ps is table.messages.ps
            assert h.traffic._static is table.messages.shapes

    @pytest.mark.parametrize("field", sorted(CHANGED))
    def test_a_machine_that_differs_in_one_gets_its_own(self, field):
        base = experiment_machine()
        changed = CHANGED[field](base)
        a = MemoryHierarchy(base, EnergyLedger())
        b = MemoryHierarchy(changed, EnergyLedger())
        assert a.latency is not b.latency
        # and its entries are its own machine's
        fresh = LatencyTable(changed.noc, changed.core.freq_ghz,
                             changed.dram.latency_cycles,
                             changed.l3.line_bytes)
        line = changed.l3.line_bytes
        for c in range(changed.l3_clusters):
            assert b.latency.fill[c] == fresh.fill[c]
            assert (b.latency.conv(c, line, False)[0]
                    == fresh.conv(c, line, False)[0])

    def test_threads_share_one(self):
        """Hierarchies built on more threads than cores at once, with
        the interpreter switching threads as often as it can, share one
        table."""
        machine = replace(experiment_machine(), dram=replace(
            experiment_machine().dram, latency_cycles=777))
        tables = []
        start = threading.Barrier(8)

        def build():
            start.wait()
            tables.append(MemoryHierarchy(machine, EnergyLedger()).latency)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(tables) == 8 and len({id(t) for t in tables}) == 1
