"""Lightweight in-order accelerator core backend.

Models the gem5 simple-CPU-style single-issue core the paper uses for
Mono-DA-IO and Dist-DA-IO: one instruction per cycle (``issue_width``
configurable for the Dist-DA-IO+SW study), no speculation, blocking
buffer accesses. Memory stall time is added by the runtime; this backend
times issue only.
"""

from __future__ import annotations

from ..energy import EnergyLedger
from ..interface.config import PartitionConfig
from ..params import InOrderParams
from .base import IterationTiming, PartitionProfile


class InOrderBackend:
    """1-issue (default) in-order core @ 2 GHz."""

    def __init__(self, params: InOrderParams):
        self.params = params
        self.freq_ghz = params.freq_ghz

    def timing(self, profile: PartitionProfile) -> IterationTiming:
        insts = profile.total_insts
        # complex ops occupy the single pipe for several cycles
        extra = 3 * profile.compute_ops.get("complex", 0)
        cycles = (insts + extra) / self.params.issue_width
        cycles = max(cycles, 1.0)
        return IterationTiming(ii_cycles=cycles, freq_ghz=self.freq_ghz)

    def charge_iteration(self, profile: PartitionProfile,
                         energy: EnergyLedger, count: float = 1.0) -> None:
        insts = profile.total_insts
        energy.charge("accel", "io_inst_overhead", insts * count)
        energy.charge(
            "accel", "int_op",
            (profile.compute_ops.get("int", 0) + profile.addr_ops) * count,
        )
        energy.charge("accel", "float_op",
                      profile.compute_ops.get("float", 0) * count)
        energy.charge("accel", "complex_op",
                      profile.compute_ops.get("complex", 0) * count)

    def setup_cycles(self, config: PartitionConfig) -> int:
        """Loading the microcode image over MMIO: one word per cycle."""
        return max(1, len(config.microcode) // 8)
