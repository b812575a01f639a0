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
from typing import Dict, Iterable, Optional, Tuple

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
#: class name -> index into :data:`_CLASSES`
_CLASS_INDEX = {tc._name_: i for i, tc in enumerate(_CLASSES)}

#: the key of a message shape: (class name, src, dst, payload bytes)
Shape = Tuple[str, int, int, int]


class Lazy(dict):
    """A dict that computes a missing entry on its first lookup. Two
    threads that miss one entry at once compute the same value, so a
    shared one needs no lock."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class MessageCosts:
    """What a message costs on ``mesh`` whoever sends it, computed on
    first lookup: :attr:`ps` maps (src, dst, payload bytes) to its
    one-way latency in ps, and :attr:`shapes` maps a shape to (latency
    ps, class index, bytes per message, hops, flits per message). The
    mesh is static, so one instance serves every ledger on the same NoC
    parameters."""

    __slots__ = ("mesh", "ps", "shapes")

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.ps = ps = Lazy(lambda key: mesh.latency_ps(
            key[0], key[1], key[2] + HEADER_BYTES))

        def shape(key: Shape) -> tuple:
            name, src, dst, payload_bytes = key
            unit = payload_bytes + HEADER_BYTES
            return (ps[(src, dst, payload_bytes)], _CLASS_INDEX[name], unit,
                    mesh.hops(src, dst), mesh.num_flits(unit))

        self.shapes = Lazy(shape)


class TrafficLedger:
    """Counts messages per shape; per-class bytes, messages and
    byte-hops, and the NoC energy counts, are derived on read.

    A cell meets tens to a few thousand message shapes and records
    millions of messages, so the record path only counts, and every
    read walks the shapes.
    """

    def __init__(self, mesh: Mesh, energy: Optional[EnergyLedger] = None,
                 costs: Optional[MessageCosts] = None):
        self.mesh = mesh
        #: static message costs on ``mesh``; a hierarchy passes its
        #: latency table's, which every cell on the same NoC shares
        costs = costs or MessageCosts(mesh)
        self._ps = costs.ps
        self._static = costs.shapes
        #: shape -> [messages, latency ps, class index, bytes per
        #: message, hops, flits per message]
        self._shapes: Dict[Shape, list] = {}
        if energy is not None:
            # validate the event names once, as charge() does per call
            getattr(energy.table, _EK_BYTE_HOP[1])
            getattr(energy.table, _EK_ROUTER_FLIT[1])
            energy.attach(self)

    def __getstate__(self) -> dict:
        # a result sent between processes carries its counts, not the
        # shared cost memos (which hold functions), so they are rebuilt
        state = self.__dict__.copy()
        del state["_ps"], state["_static"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        costs = MessageCosts(self.mesh)
        self._ps, self._static = costs.ps, costs.shapes

    def latency_of(self, src: int, dst: int, payload_bytes: int) -> int:
        """Memoized one-way message latency (what :meth:`record` returns)."""
        return self._ps[(src, dst, payload_bytes)]

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
            shape = self._shapes[key] = [0, *self._static[key]]
        shape[0] += count
        return shape[1]

    def record_shapes(self, counts: Iterable[Tuple[Shape, int]]) -> None:
        """Record ``count`` messages of each (shape, count) pair, as
        :meth:`record` does one shape at a time."""
        shapes, static = self._shapes, self._static
        for key, count in counts:
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = [0, *static[key]]
            shape[0] += count

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
