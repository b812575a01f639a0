"""LPDDR main-memory model: fixed latency + energy accounting.

Row-buffer effects are folded into the average access latency; the paper's
comparisons are dominated by *whether* an access leaves the chip, not by
DRAM page policy.
"""

from __future__ import annotations

from typing import Optional

from ..energy import EnergyLedger
from ..params import DramParams


class Dram:
    """Accounting model of the off-chip LPDDR channel."""

    def __init__(self, params: DramParams,
                 energy: Optional[EnergyLedger] = None):
        self.params = params
        self.energy = energy
        self.reads = 0
        self.writes = 0

    def access(self, is_write: bool) -> int:
        """Record one line transfer; returns its latency in cycles."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        if self.energy is not None:
            self.energy.charge("dram", "dram_line_access", 1)
        return self.params.latency_cycles

    @property
    def accesses(self) -> int:
        return self.reads + self.writes
