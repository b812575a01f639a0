"""Regression tests for former default-topology hardcodes.

Each test runs a *non-default* topology through the layer whose code
used to bake in the 4x2 mesh / 8-cluster / host-at-node-0 experiment
machine: NUCA home mapping, slab stripe alignment, mesh hop distance
from a relocated host tile, and AN-R03 cluster-span attribution.
"""

import dataclasses
import math

import pytest

from repro.analysis.races import cluster_spans
from repro.ir import FLOAT32, Kernel, Loop, LoopVar, MemObject
from repro.machine import machine_from_document
from repro.mem.nuca import NucaL3
from repro.mem.slab import DEFAULT_ARENA_BASE, SlabAllocator
from repro.params import (
    PAGE_BYTES,
    CacheParams,
    derive_machine,
    experiment_machine,
)
from repro.sim.system import simulate_workload
from repro.testing import generate_case


def _machine_16c():
    return machine_from_document({
        "schema_version": 1,
        "l3_clusters": 16,
        "l3": {"size_bytes": 16 * 4096},
        "l1": {"size_bytes": 1024},
        "l2": {"size_bytes": 8192},
        "noc": {"mesh_cols": 4, "mesh_rows": 4,
                "host_node": 3, "mc_node": 12},
        "mono_private_bytes": 1024,
    })


# ---------------------------------------------------------------------------
# NUCA home mapping beyond 8 clusters
# ---------------------------------------------------------------------------
def test_nuca_home_mapping_16_clusters():
    machine = _machine_16c()
    nuca = NucaL3(machine)
    stripe = machine.l3_cluster_bytes
    assert stripe == 4096
    for k in range(32):
        addr = DEFAULT_ARENA_BASE + k * stripe
        assert nuca.home_cluster(addr) == (addr // stripe) % 16
    homes = {nuca.home_cluster(DEFAULT_ARENA_BASE + k * stripe)
             for k in range(16)}
    assert homes == set(range(16))


# ---------------------------------------------------------------------------
# slab alignment when the stripe is smaller than a page
# ---------------------------------------------------------------------------
def test_sub_page_stripe_simulates_end_to_end():
    """32 clusters on the experiment base -> 2 KiB stripe < 4 KiB page;
    allocation must align to lcm(stripe, page), not the raw stripe."""
    machine = derive_machine(experiment_machine(), {"topology": "8x4"})
    assert machine.l3_cluster_bytes == 2048
    case = generate_case(77, shape="elementwise")
    run = simulate_workload(case.instance(), "dist_da_io", machine=machine)
    assert run.validated


def test_slab_rejects_non_page_align():
    slab = SlabAllocator()
    with pytest.raises(Exception):
        slab.allocate("x", 64, align=2048)


# ---------------------------------------------------------------------------
# AN-R03 span attribution mirrors the simulator's layout exactly
# ---------------------------------------------------------------------------
def _two_object_kernel(size_a, size_b):
    a = MemObject("a", size_a // 4, FLOAT32)
    b = MemObject("b", size_b // 4, FLOAT32)
    i = LoopVar("i")
    loop = Loop("i", 0, 8, [b.store(i, a[i] * 2.0)])
    return Kernel("spans", {"a": a, "b": b}, [loop], outputs=["b"])


def test_cluster_spans_nonzero_arena_offset():
    """6 clusters x 256 KiB stripe: the arena base lands mid-cycle
    (0x1000_0000 / 256 KiB = 1024, 1024 % 6 = 4), so span attribution
    starting at cluster 0 would misattribute every object."""
    machine = dataclasses.replace(
        experiment_machine(),
        l3=CacheParams(size_bytes=6 * 256 * 1024, ways=16,
                       latency_cycles=10, mshrs=16),
        l3_clusters=6,
    )
    stripe = machine.l3_cluster_bytes
    assert stripe == 256 * 1024
    first = (DEFAULT_ARENA_BASE // stripe) % 6
    assert first == 4  # the interesting case: not cluster 0
    kernel = _two_object_kernel(PAGE_BYTES, PAGE_BYTES)
    spans = cluster_spans(kernel, machine)
    assert spans["a"] == (first,)
    # every object anchors to its own stripe boundary, so the second
    # object homes to the next cluster in the cycle
    assert spans["b"] == ((first + 1) % 6,)


def test_cluster_spans_match_slab_and_nuca():
    """The analysis mirror and the simulator's actual slab + NUCA agree
    on every object's home clusters for a sub-page-stripe topology."""
    machine = derive_machine(experiment_machine(), {"topology": "4x4"})
    stripe = machine.l3_cluster_bytes
    kernel = _two_object_kernel(3 * PAGE_BYTES, 2 * PAGE_BYTES)
    spans = cluster_spans(kernel, machine)

    slab = SlabAllocator()
    nuca = NucaL3(machine)
    align = math.lcm(stripe, PAGE_BYTES)
    for name, obj in kernel.objects.items():
        alloc = slab.allocate(name, obj.size_bytes, align=align)
        homes = {
            nuca.home_cluster(addr) for addr in
            range(alloc.base, alloc.base + obj.size_bytes, stripe)
        }
        homes.add(nuca.home_cluster(alloc.base + obj.size_bytes - 1))
        assert tuple(sorted(homes)) == spans[name], name


# ---------------------------------------------------------------------------
# the host tile placement is honored, not hardcoded to node 0
# ---------------------------------------------------------------------------
def test_host_node_placement_changes_noc_traffic():
    base_doc = {
        "schema_version": 1,
        "l3_clusters": 16,
        "l3": {"size_bytes": 16 * 4096},
        "l1": {"size_bytes": 1024},
        "l2": {"size_bytes": 8192},
        "mono_private_bytes": 1024,
        "noc": {"mesh_cols": 4, "mesh_rows": 4, "mc_node": 15},
    }
    case = generate_case(42, shape="elementwise")

    def flits(host_node):
        doc = {**base_doc,
               "noc": {**base_doc["noc"], "host_node": host_node}}
        run = simulate_workload(
            case.instance(), "dist_da_io",
            machine=machine_from_document(doc))
        assert run.validated
        return run.energy.count("noc", "noc_router_flit")

    # node 0 is a corner; node 5 is interior — hop distances to the
    # accelerator tiles and the MC differ, so flit-hops must too
    assert flits(0) != flits(5)
