"""Common accelerator-backend abstractions.

A backend answers one question for the runtime: *how long does one
iteration of this partition take, and at what energy?* Memory stalls are
the runtime's business (they come from buffers and the hierarchy); the
backend models compute issue only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol

from ..energy import EnergyLedger
from ..interface.config import PartitionConfig


@dataclass(frozen=True)
class PartitionProfile:
    """Per-iteration workload of one partition, substrate-independent."""

    compute_ops: Dict[str, int]          # op_class -> count
    addr_ops: int = 0
    buffer_reads: int = 0                # stream/channel consumes
    buffer_writes: int = 0               # stream/channel produces
    indirect_accesses: int = 0           # cp_read/cp_write round trips

    @property
    def total_compute(self) -> int:
        return sum(self.compute_ops.values())

    @property
    def total_insts(self) -> int:
        """Issue slots per iteration (for 1-issue cores).

        Access-unit buffers are register-mapped: a consume/produce is an
        operand fetch of the instruction using it, not an instruction of
        its own (hence the paper's lean Table VI static counts, e.g. 11
        for cholesky). Indirect cp_read/cp_write remain real MMIO
        instructions, and the orchestrator's loop control costs one slot.
        """
        return (
            self.total_compute + self.addr_ops
            + self.indirect_accesses + 1  # loop control
        )

    @staticmethod
    def from_config(config: PartitionConfig) -> "PartitionProfile":
        # channel accesses are counted through consumes/produces, not here,
        # so an access never contributes twice
        reads = sum(
            1 for a in config.accesses if not a.is_write
            and a.kind.value not in ("indirect", "channel")
        )
        writes = sum(
            1 for a in config.accesses if a.is_write
            and a.kind.value not in ("indirect", "channel")
        )
        indirect = sum(
            1 for a in config.accesses if a.kind.value == "indirect"
        )
        return PartitionProfile(
            compute_ops=dict(config.compute_ops),
            addr_ops=config.addr_ops,
            buffer_reads=reads + len(config.consumes),
            buffer_writes=writes + len(config.produces),
            indirect_accesses=indirect,
        )


@dataclass(frozen=True)
class IterationTiming:
    """Steady-state timing of one partition iteration."""

    #: initiation interval: cycles between successive iteration starts
    ii_cycles: float
    freq_ghz: float

    @property
    def ii_ps(self) -> int:
        from ..events import cycles_to_ps

        return cycles_to_ps(self.ii_cycles, self.freq_ghz)


class ComputeBackend(Protocol):
    """What the runtime needs from a substrate."""

    freq_ghz: float

    def timing(self, profile: PartitionProfile) -> IterationTiming:
        """Steady-state iteration timing for a partition."""
        ...

    def charge_iteration(self, profile: PartitionProfile,
                         energy: EnergyLedger, count: float = 1.0) -> None:
        """Charge the dynamic energy of ``count`` iterations."""
        ...

    def setup_cycles(self, config: PartitionConfig) -> int:
        """One-time configuration cost (microcode / bitstream load)."""
        ...
