"""NoC traffic accounting in the paper's Figure-10 categories.

Every message sent over the mesh is recorded with a
:class:`TrafficClass`:

* ``HOST_CTRL``  — host-initiated request/response control (MMIO configs,
  cp_config*/cp_run/cp_set_rf, cache request headers);
* ``HOST_DATA``  — data moved on behalf of the host (cache line fills and
  writebacks crossing the mesh, host read/write payloads);
* ``ACC_CTRL``   — inter-accelerator control (produce/consume handshakes,
  credits, step notifications);
* ``ACC_DATA``   — inter-accelerator operand payloads.

The ledger counts messages per shape (class, src, dst, payload) and
derives everything else from those counts when it is read: the
per-class bytes, byte-hops and message counts, and the NoC energy
events (per byte-hop and per router-flit), which the shared
:class:`~repro.energy.EnergyLedger` reads through
:meth:`TrafficLedger.energy_counts`. A message shape's size, distance
and flit count are static properties of the mesh, so a record is one
count, like a ZigZag memory level whose per-access costs are multiplied
by its access count only when a total is read.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from ..energy import EnergyLedger
from .mesh import Mesh

#: bytes of header carried by every message (request/command encoding)
HEADER_BYTES = 8


class TrafficClass(enum.Enum):
    HOST_CTRL = "ctrl"
    HOST_DATA = "data"
    ACC_CTRL = "acc_ctrl"
    ACC_DATA = "acc_data"


#: energy-count keys :meth:`TrafficLedger.energy_counts` derives
_EK_BYTE_HOP = ("noc", "noc_byte_hop")
_EK_ROUTER_FLIT = ("noc", "noc_router_flit")

_CLASSES = tuple(TrafficClass)


class TrafficLedger:
    """Counts messages per shape; per-class bytes, messages and
    byte-hops, and the NoC energy counts, are derived on read.

    A cell meets tens to a few thousand message shapes and records
    millions of messages, so the record path only counts, and every
    read walks the shapes.
    """

    def __init__(self, mesh: Mesh, energy: Optional[EnergyLedger] = None):
        self.mesh = mesh
        #: (src, dst, payload) -> one-way latency ps; messages repeat the
        #: same few shapes millions of times, the mesh is static
        self._lat_memo: Dict[Tuple[int, int, int], int] = {}
        #: (class name, src, dst, payload) -> [messages, latency ps,
        #: class index, bytes per message, hops, flits per message]
        self._shapes: Dict[Tuple[str, int, int, int], list] = {}
        if energy is not None:
            # validate the event names once, as charge() does per call
            getattr(energy.table, _EK_BYTE_HOP[1])
            getattr(energy.table, _EK_ROUTER_FLIT[1])
            energy.attach(self)

    def latency_of(self, src: int, dst: int, payload_bytes: int) -> int:
        """Memoized one-way message latency (what :meth:`record` returns)."""
        key = (src, dst, payload_bytes)
        lat = self._lat_memo.get(key)
        if lat is None:
            lat = self._lat_memo[key] = self.mesh.latency_ps(
                src, dst, payload_bytes + HEADER_BYTES
            )
        return lat

    def record(self, tclass: TrafficClass, src: int, dst: int,
               payload_bytes: int, count: int = 1) -> int:
        """Record ``count`` identical messages; returns one-way latency ps.

        Local messages (src == dst) cost no link energy but are still
        counted as bytes so access-distribution statistics see them.
        """
        # keyed by the class's name: hashing an Enum member runs Python
        key = (tclass._name_, src, dst, payload_bytes)
        shape = self._shapes.get(key)
        if shape is None:
            unit = payload_bytes + HEADER_BYTES
            shape = self._shapes[key] = [
                0, self.latency_of(src, dst, payload_bytes),
                _CLASSES.index(tclass), unit, self.mesh.hops(src, dst),
                self.mesh.num_flits(unit)]
        shape[0] += count
        return shape[1]

    def _by_class(self) -> Tuple[list, list, list]:
        """Per class index: bytes, byte-hops and messages."""
        nbytes = [0] * len(_CLASSES)
        byte_hops = [0] * len(_CLASSES)
        messages = [0] * len(_CLASSES)
        for n, _, ci, unit, hops, _ in self._shapes.values():
            nbytes[ci] += unit * n
            byte_hops[ci] += unit * n * hops
            messages[ci] += n
        return nbytes, byte_hops, messages

    def energy_counts(self) -> Dict[Tuple[str, str], float]:
        """The NoC energy event counts of the recorded messages that
        leave their node; empty while none has."""
        byte_hops = router_flits = 0
        remote = False
        for n, _, _, unit, hops, flits in self._shapes.values():
            if hops:
                remote = True
                byte_hops += unit * n * hops
                router_flits += flits * (hops + 1) * n
        if not remote:
            return {}
        return {_EK_BYTE_HOP: float(byte_hops),
                _EK_ROUTER_FLIT: float(router_flits)}

    # every class is always present in the per-class mappings
    @property
    def bytes_by_class(self) -> Dict[TrafficClass, float]:
        return dict(zip(_CLASSES, map(float, self._by_class()[0])))

    @property
    def byte_hops_by_class(self) -> Dict[TrafficClass, float]:
        return dict(zip(_CLASSES, map(float, self._by_class()[1])))

    @property
    def messages_by_class(self) -> Dict[TrafficClass, int]:
        return dict(zip(_CLASSES, self._by_class()[2]))

    # -- summaries ---------------------------------------------------------
    def total_bytes(self) -> float:
        return float(sum(self._by_class()[0]))

    def total_byte_hops(self) -> float:
        return float(sum(self._by_class()[1]))

    def breakdown(self) -> Dict[str, float]:
        """Figure-10 style breakdown: bytes per class name."""
        return {tc.value: n for tc, n in self.bytes_by_class.items()}

    def class_bytes(self, tclass: TrafficClass) -> float:
        return self.bytes_by_class[tclass]
