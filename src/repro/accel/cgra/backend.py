"""CGRA compute backend: II-pipelined spatial execution @ 1 GHz.

A mapped partition initiates one iteration every II cycles in steady
state; spatially-mapped producer/consumer PEs exchange operands with
implicit access-ids (paper §IV-B), so per-op instruction overhead
disappears — that is the compute-specialization win quantified as the
1.23x (energy) / 1.43x (speedup) Dist-DA-F vs Dist-DA-IO gap.

The II is the larger of two bounds: each op class over its ALU count
(the resource bound) and the buffer operands over the buffers' two
ports. Placement and routing on the PE grid are not modelled; the grid
only caps the ALU budget (``rows x cols``, a machine rule).
"""

from __future__ import annotations

import math

from ...energy import EnergyLedger
from ...interface.config import PartitionConfig
from ...params import CgraParams
from ..base import IterationTiming, PartitionProfile


class CgraBackend:
    """Statically-mapped heterogeneous CGRA fabric backend."""

    def __init__(self, params: CgraParams):
        self.params = params
        self.freq_ghz = params.freq_ghz

    def timing(self, profile: PartitionProfile) -> IterationTiming:
        # buffer interface ports: dual-ported access-unit buffers
        port_ii = math.ceil(
            max(profile.buffer_reads, profile.buffer_writes, 1) / 2
        )
        return IterationTiming(
            ii_cycles=max(self._resource_ii(profile), port_ii),
            freq_ghz=self.freq_ghz,
        )

    def _resource_ii(self, profile: PartitionProfile) -> int:
        p = self.params
        ii = 1
        int_ops = profile.compute_ops.get("int", 0) + profile.addr_ops
        pairs = (
            (int_ops, p.int_alus),
            (profile.compute_ops.get("float", 0), p.float_alus),
            (profile.compute_ops.get("complex", 0), p.complex_alus),
        )
        for need, have in pairs:
            if need:
                ii = max(ii, math.ceil(need / have))
        return ii

    def charge_iteration(self, profile: PartitionProfile,
                         energy: EnergyLedger, count: float = 1.0) -> None:
        ops = profile.total_compute + profile.addr_ops
        energy.charge("accel", "cgra_op", ops * count)
        # PE-port operand moves for buffer interfaces
        energy.charge(
            "accel", "reg_access",
            (profile.buffer_reads + profile.buffer_writes) * count,
        )

    def setup_cycles(self, config: PartitionConfig) -> int:
        """Static configuration load: one config word per cycle."""
        words = max(
            sum(config.compute_ops.values()) + config.addr_ops, 1
        )
        return words

    def charge_setup(self, config: PartitionConfig,
                     energy: EnergyLedger) -> None:
        energy.charge("accel", "cgra_config_word", self.setup_cycles(config))
