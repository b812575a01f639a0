"""Energy accounting ledger.

Every simulated component charges events into a shared
:class:`EnergyLedger`. The ledger keeps (component, event) counts and
converts them to picojoules through an :class:`EnergyTable`, giving both a
total and a per-component breakdown for the energy-efficiency figures.
Counts another ledger derives (the NoC traffic ledger's byte-hops and
router flits) are read from it, through :meth:`EnergyLedger.attach`,
each time a count or total is read.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

from .tables import EnergyTable, default_energy_table

#: canonical component names used in breakdowns
COMPONENTS = (
    "core", "l1", "l2", "l3", "dram", "noc",
    "accel", "access_unit", "scheduler", "host_iface",
)


class EnergyLedger:
    """Accumulates event counts and converts them to energy.

    The first ``charge(component, event, count)`` of a (component,
    event) pair looks ``event`` up as an attribute of the energy table;
    an unknown event raises ``AttributeError`` there and leaves no
    count, so a typo cannot silently drop energy. Later charges of the
    pair only add.
    """

    def __init__(self, table: EnergyTable | None = None):
        self.table = table or default_energy_table()
        self._counts: Dict[Tuple[str, str], float] = {}
        #: ledgers whose ``energy_counts()`` add to the charged counts
        self._sources: List = []

    def attach(self, source) -> None:
        """Read ``source.energy_counts()``, a (component, event) -> count
        mapping, as part of this ledger's counts on every read."""
        self._sources.append(source)

    def _all_counts(self) -> Dict[Tuple[str, str], float]:
        """The charged counts plus every attached ledger's."""
        if not self._sources:
            return self._counts
        out = dict(self._counts)
        for source in self._sources:
            for key, n in source.energy_counts().items():
                out[key] = out.get(key, 0.0) + n
        return out

    def charge(self, component: str, event: str, count: float = 1.0) -> None:
        if count < 0:
            raise ValueError(f"negative event count: {count}")
        key = (component, event)
        try:
            self._counts[key] += count
        except KeyError:
            getattr(self.table, event)  # validate the event name once
            self._counts[key] = 0.0 + count

    def count(self, component: str, event: str) -> float:
        return self._all_counts().get((component, event), 0.0)

    def counts(self) -> Mapping[Tuple[str, str], float]:
        return dict(self._all_counts())

    # Summaries iterate the counts in *sorted key order*: dict insertion
    # order depends on which code path charged a (component, event) pair
    # first, and the batched production replay paths charge per-home
    # counts in a different order than the scalar reference.
    # The per-pair counts are identical exact integers either way; a
    # deterministic summation order makes the float totals bit-identical
    # too.
    def total_pj(self) -> float:
        return sum(
            getattr(self.table, event) * n
            for (_, event), n in sorted(self._all_counts().items())
        )

    def total_nj(self) -> float:
        return self.total_pj() / 1000.0

    def by_component(self) -> Dict[str, float]:
        """Energy in pJ per component."""
        out: Dict[str, float] = defaultdict(float)
        for (component, event), n in sorted(self._all_counts().items()):
            out[component] += getattr(self.table, event) * n
        return dict(out)

    def by_event(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (_, event), n in sorted(self._all_counts().items()):
            out[event] += getattr(self.table, event) * n
        return dict(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EnergyLedger total={self.total_nj():.2f} nJ>"
