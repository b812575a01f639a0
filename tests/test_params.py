"""Tests that the default machine matches the paper's Table III."""

import dataclasses

import pytest

from repro.errors import MachineConfigError
from repro.params import (
    CACHE_LINE_BYTES,
    CacheParams,
    default_machine,
    mono_da_cgra_machine,
)


class TestTableIII:
    """Each parameter here is cross-checked against Table III of the paper."""

    def setup_method(self):
        self.m = default_machine()

    def test_core(self):
        assert self.m.core.freq_ghz == 2.0
        assert self.m.core.issue_width == 5

    def test_l1(self):
        assert self.m.l1.size_bytes == 32 * 1024
        assert self.m.l1.ways == 8
        assert self.m.l1.mshrs == 8
        assert self.m.l1.latency_cycles == 2

    def test_l2(self):
        assert self.m.l2.size_bytes == 128 * 1024
        assert self.m.l2.ways == 16
        assert self.m.l2.mshrs == 16
        assert self.m.l2.latency_cycles == 4
        assert self.m.l2_stride_prefetcher

    def test_l3(self):
        assert self.m.l3.size_bytes == 2 * 1024 * 1024
        assert self.m.l3_clusters == 8
        assert self.m.l3_cluster_bytes == 256 * 1024
        assert self.m.l3.ways == 16
        assert self.m.l3.mshrs == 64
        assert self.m.l3.latency_cycles == 10

    def test_noc_mesh_covers_clusters(self):
        assert self.m.noc.num_nodes == self.m.l3_clusters

    def test_dram(self):
        assert self.m.dram.latency_cycles == 120
        assert self.m.dram.bandwidth_bytes_per_cycle == 12.8

    def test_accelerators(self):
        assert self.m.inorder.freq_ghz == 2.0
        assert self.m.inorder.issue_width == 1
        assert self.m.cgra.freq_ghz == 1.0
        assert self.m.cgra.rows == 5 and self.m.cgra.cols == 5
        assert self.m.access_unit.buffer_bytes == 4096
        assert self.m.access_unit.acp_bytes == 1024


class TestCacheGeometry:
    def test_sets_and_lines(self):
        c = CacheParams(size_bytes=32 * 1024, ways=8, latency_cycles=2, mshrs=8)
        assert c.num_lines == 32 * 1024 // CACHE_LINE_BYTES
        assert c.num_sets == c.num_lines // 8

    def test_bad_geometry_rejected(self):
        bad = CacheParams(size_bytes=1000, ways=3, latency_cycles=1, mshrs=1)
        with pytest.raises(MachineConfigError) as err:
            dataclasses.replace(default_machine(), l1=bad)
        assert any(v.startswith("l1.size_bytes ")
                   for v in err.value.violations)


class TestVariants:
    def test_params_frozen(self):
        m = default_machine()
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.l3_clusters = 4  # type: ignore[misc]

    def test_mono_da_cgra_is_8x8(self):
        m = mono_da_cgra_machine()
        assert m.cgra.rows == 8 and m.cgra.cols == 8
        assert m.cgra.num_pes == 64

    def test_with_accel_freq(self):
        m = default_machine().with_accel_freq(3.0)
        assert m.inorder.freq_ghz == 3.0
        assert m.cgra.freq_ghz == 3.0
        # original untouched
        assert default_machine().cgra.freq_ghz == 1.0

    def test_cgra_pe_budget_matches_paper(self):
        """5x5 tile: four float, four 'complex', fifteen integer ALUs."""
        m = default_machine()
        total = m.cgra.int_alus + m.cgra.float_alus + m.cgra.complex_alus
        assert total <= m.cgra.num_pes + 2  # heterogeneous distribution
        assert m.cgra.float_alus == 4
        assert m.cgra.complex_alus == 4
        assert m.cgra.int_alus == 15
