"""Energy accounting ledger.

Every simulated component charges events into a shared
:class:`EnergyLedger`. The ledger keeps (component, event) counts and
converts them to picojoules through an :class:`EnergyTable`, giving both a
total and a per-component breakdown for the energy-efficiency figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Tuple

from .tables import EnergyTable, default_energy_table

#: canonical component names used in breakdowns
COMPONENTS = (
    "core", "l1", "l2", "l3", "dram", "noc",
    "accel", "access_unit", "scheduler", "host_iface",
)


class EnergyLedger:
    """Accumulates event counts and converts them to energy.

    ``charge(component, event, count)`` looks ``event`` up as an attribute
    of the energy table; unknown events raise ``AttributeError`` eagerly so
    a typo cannot silently drop energy.
    """

    def __init__(self, table: EnergyTable | None = None):
        self.table = table or default_energy_table()
        self._counts: Dict[Tuple[str, str], float] = defaultdict(float)

    def charge(self, component: str, event: str, count: float = 1.0) -> None:
        if count < 0:
            raise ValueError(f"negative event count: {count}")
        getattr(self.table, event)  # validate event name eagerly
        self._counts[(component, event)] += count

    def count(self, component: str, event: str) -> float:
        return self._counts.get((component, event), 0.0)

    def counts(self) -> Mapping[Tuple[str, str], float]:
        return dict(self._counts)

    # Summaries iterate the count dict in *sorted key order*: dict
    # insertion order depends on which code path charged a (component,
    # event) pair first, and the batched production replay paths charge
    # pooled counts in a different order than the scalar reference.
    # The per-pair counts are identical exact integers either way; a
    # deterministic summation order makes the float totals bit-identical
    # too.
    def total_pj(self) -> float:
        return sum(
            getattr(self.table, event) * n
            for (_, event), n in sorted(self._counts.items())
        )

    def total_nj(self) -> float:
        return self.total_pj() / 1000.0

    def by_component(self) -> Dict[str, float]:
        """Energy in pJ per component."""
        out: Dict[str, float] = defaultdict(float)
        for (component, event), n in sorted(self._counts.items()):
            out[component] += getattr(self.table, event) * n
        return dict(out)

    def by_event(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (_, event), n in sorted(self._counts.items()):
            out[event] += getattr(self.table, event) * n
        return dict(out)

    def merge(self, others: Iterable["EnergyLedger"]) -> None:
        """Fold other ledgers (e.g. per-thread) into this one."""
        for other in others:
            for key, n in other._counts.items():
                self._counts[key] += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EnergyLedger total={self.total_nj():.2f} nJ>"
