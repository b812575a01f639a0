"""Offload-configuration records: the "distributed accelerator definitions".

These are what the compiler emits (Figure 3-4) and what the host transfers
through ``cp_config`` at runtime. A :class:`PartitionConfig` fully
describes one distributed accelerator: its anchored memory object, its
specialized accesses, its operand channels to peer accelerators, its
compute payload (microcode for IO cores / a mapped DFG for CGRAs), and its
iteration-control orchestrator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import InterfaceError


class AccessKind(enum.Enum):
    """What an access-id names once configured."""

    STREAM_READ = "stream_read"      # cp_config_stream, FSM-filled
    STREAM_WRITE = "stream_write"    # cp_config_stream, FSM-drained
    INDIRECT = "indirect"            # cp_read/cp_write via translation block
    RANDOM = "random"                # cp_config_random window
    CHANNEL = "channel"              # inter-accelerator operand buffer


@dataclass
class AccessConfig:
    """One configured access-id of a partition."""

    access_id: int
    kind: AccessKind
    obj: Optional[str] = None
    elem_bytes: int = 4
    #: element stride (STREAM kinds)
    stride_elems: int = 1
    #: first-element offset (elements) within the object, when static
    start_offset: int = 0
    #: elements per offload invocation, when statically known
    length: Optional[int] = None
    #: does this access carry data into (read) or out of (write) the unit
    is_write: bool = False
    #: DFG access-node ids folded into this access
    dfg_nodes: Tuple[int, ...] = ()
    #: interpreter trace site ids served by this access
    site_ids: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in (AccessKind.STREAM_READ, AccessKind.STREAM_WRITE,
                         AccessKind.INDIRECT, AccessKind.RANDOM):
            if self.obj is None:
                raise InterfaceError(
                    f"access {self.access_id}: kind {self.kind.value} "
                    "requires a memory object"
                )
        if self.elem_bytes <= 0:
            raise InterfaceError("elem_bytes must be positive")


@dataclass
class ChannelConfig:
    """A producer->consumer operand edge between two partitions.

    Maps one DFG cross-edge onto a pair of access-ids: the producer's
    write pointer and the consumer's read pointer (Figure 4's %a1 / %a2
    pair, with the proxy pointer handled by the runtime).
    """

    channel_id: int
    producer_partition: int
    consumer_partition: int
    producer_access_id: int
    consumer_access_id: int
    width_bits: int = 32
    #: predicate channels carry control decisions, 1 bit of payload
    is_predicate: bool = False

    @property
    def payload_bytes(self) -> int:
        return max(1, self.width_bits // 8)


@dataclass
class PartitionConfig:
    """One distributed accelerator definition."""

    partition_index: int
    #: the single memory object anchored at this partition (None for
    #: compute-only partitions)
    anchor_object: Optional[str]
    accesses: List[AccessConfig] = field(default_factory=list)
    #: channel ids consumed / produced each iteration
    consumes: List[int] = field(default_factory=list)
    produces: List[int] = field(default_factory=list)
    #: per-iteration compute profile {op_class: count}
    compute_ops: Dict[str, int] = field(default_factory=dict)
    #: address-generation ops folded into accessors, per iteration
    addr_ops: int = 0
    #: DFG node ids owned by this partition
    dfg_nodes: Tuple[int, ...] = ()
    #: microcode image for IO-core backends (bytes; 8 B/inst)
    microcode: bytes = b""
    #: scalar register file preset (reg-id -> value), via cp_set_rf
    rf_presets: Dict[int, float] = field(default_factory=dict)

    def access(self, access_id: int) -> AccessConfig:
        for acc in self.accesses:
            if acc.access_id == access_id:
                return acc
        raise InterfaceError(
            f"partition {self.partition_index}: unknown access {access_id}"
        )

    @property
    def static_insts(self) -> int:
        """Static instruction count (Table VI #insts)."""
        return len(self.microcode) // 8


@dataclass
class OffloadConfig:
    """A complete compiled offload: all partitions plus metadata."""

    offload_id: int
    kernel_name: str
    partitions: List[PartitionConfig]
    channels: List[ChannelConfig] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = [p.partition_index for p in self.partitions]
        if sorted(indices) != list(range(len(indices))):
            raise InterfaceError(
                f"partition indices must be 0..n-1, got {indices}"
            )
        for ch in self.channels:
            for side in (ch.producer_partition, ch.consumer_partition):
                if not (0 <= side < len(self.partitions)):
                    raise InterfaceError(
                        f"channel {ch.channel_id} references partition {side}"
                    )

    def partition(self, index: int) -> PartitionConfig:
        return self.partitions[index]

    def channel(self, channel_id: int) -> ChannelConfig:
        for ch in self.channels:
            if ch.channel_id == channel_id:
                return ch
        raise InterfaceError(f"unknown channel {channel_id}")

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def channel_components(self) -> List[List[int]]:
        """Strongly connected components of the partition channel graph
        (one edge per channel, producer to consumer), each sorted, in the
        order Tarjan's algorithm closes them.

        A component of two or more partitions is a per-iteration
        dependence cycle (e.g. pointer chasing through a remote object).
        The walk keeps its own stack, so no partition count reaches the
        recursion limit.
        """
        succ: List[List[int]] = [[] for _ in self.partitions]
        for ch in self.channels:
            succ[ch.producer_partition].append(ch.consumer_partition)
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        stack: List[int] = []
        on_stack: Set[int] = set()
        #: the DFS path: each vertex with the successors it has left
        work: List[Tuple[int, Iterator[int]]] = []
        out: List[List[int]] = []

        def visit(v: int) -> None:
            index[v] = low[v] = len(index)
            stack.append(v)
            on_stack.add(v)
            work.append((v, iter(succ[v])))

        for root in range(len(succ)):
            if root in index:
                continue
            visit(root)
            while work:
                v, successors = work[-1]
                for w in successors:
                    if w not in index:
                        visit(w)
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
                    if low[v] == index[v]:
                        comp: List[int] = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            comp.append(w)
                            if w == v:
                                break
                        out.append(sorted(comp))
        return out

    def config_calls(self) -> List:
        """The host-side intrinsic sequence that installs this offload.

        Used both to drive the runtime and to charge MMIO/%init overhead.
        """
        from .intrinsics import Intrinsic, IntrinsicCall

        calls: List[IntrinsicCall] = []
        for part in self.partitions:
            calls.append(IntrinsicCall(
                Intrinsic.CP_CONFIG, (self.offload_id, part.partition_index)
            ))
            for acc in part.accesses:
                if acc.kind in (AccessKind.STREAM_READ,
                                AccessKind.STREAM_WRITE,
                                AccessKind.CHANNEL):
                    calls.append(IntrinsicCall(
                        Intrinsic.CP_CONFIG_STREAM,
                        (acc.access_id, acc.start_offset, acc.stride_elems,
                         acc.length or 0),
                    ))
                else:
                    calls.append(IntrinsicCall(
                        Intrinsic.CP_CONFIG_RANDOM,
                        (acc.access_id, acc.start_offset, acc.length or 0),
                    ))
            for reg, value in part.rf_presets.items():
                calls.append(IntrinsicCall(Intrinsic.CP_SET_RF, (reg, value)))
        calls.append(IntrinsicCall(Intrinsic.CP_RUN, (self.offload_id,)))
        return calls
