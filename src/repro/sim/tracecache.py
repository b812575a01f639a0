"""Reusable per-dataset functional artifacts.

The golden interpreter's outputs for one workload instance — per-call
address traces, op counts, loop-iteration maps and the output verdict —
depend only on the dataset, never on the simulated machine. The
experiment matrix runs every workload under six configurations and a
sweep replays each dataset on many machine points, so interpreting each
dataset once and replaying the recorded results everywhere else removes
the hottest redundant work of a full §VI reproduction.

:class:`TraceCache` is a bounded in-memory LRU store keyed by the
functional key; each entry holds one :class:`FunctionalCallRecord` per
dynamic kernel call, the instance fields replay reads
(:class:`DatasetInfo`) and the interpreting cell's validation verdict,
so a hit needs no dataset build, array restore or NumPy reference.
An evicted entry is forgotten: every shipped caller visits one
dataset's cells back to back, so none would ever ask for it again.

Loop-iteration maps are keyed by the loop's *position* among the
kernel's innermost loops (``Kernel.innermost_loop_ids``) end to end —
the interpreter records them that way and the system simulator consumes
them that way — so records survive pickling and never alias across
kernels the way ``id()`` keys can.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

from ..envcfg import reference_enabled
from ..ir.interp import InterpResult, MemAccess, OpCounts
from ..ir.program import Kernel, MemObject
from ..ir.trace import ColumnarTrace
from ..obs import OBS
from ..runtime.streams import SiteStreams

if TYPE_CHECKING:  # pragma: no cover
    from ..compiler.pipeline import CompiledKernel

#: a recorded access trace: columnar (normal) or a plain MemAccess list
#: (an untraced call's empty list / hand-built tests) — both speak the
#: same sequence protocol
TraceLike = Union[ColumnarTrace, List[MemAccess]]


def functional_key(workload: str, scale: str,
                   build_kwargs: Optional[Mapping[str, object]] = None
                   ) -> Tuple[str, str]:
    """Cache key covering everything that changes *functional* behavior.

    The golden interpretation of a workload depends on the workload, its
    scale and any dataset-shaping build kwargs (e.g. fdtd-2d's ``n`` /
    ``timesteps``) — and on nothing about the simulated machine. Sweeps
    over machine parameters (`repro.dse`) therefore share one entry per
    dataset across every machine point, while dataset axes get distinct
    keys. The kwargs are folded into the scale component canonically
    (sorted, ``scale@k=v,...``) so the key stays a picklable, printable
    ``(workload, variant)`` string pair.

    The active mode (``REPRO_REFERENCE``) is folded in as well: the
    vectorized and tree-walking interpreters are bit-identical by
    contract, but keying them apart means a mode flip — which is exactly
    what the differential oracle does — re-interprets under the new mode
    instead of replaying a record produced by the other one, so
    cross-mode comparisons keep their evidentiary value.
    """
    variant = scale
    if build_kwargs:
        kw = ",".join(
            f"{k}={build_kwargs[k]!r}" for k in sorted(build_kwargs)
        )
        variant = f"{scale}@{kw}"
    if reference_enabled():
        variant += "+scalar"
    return (workload, variant)


@dataclass
class FunctionalCallRecord:
    """Functional interpretation of one dynamic kernel call."""

    kernel: Kernel
    scalars: Dict[str, float]
    counts: OpCounts
    trace: TraceLike
    inner_iterations: int
    #: innermost-loop position (per ``kernel.innermost_loops()``) -> value
    inner_iters_by_index: Dict[int, int] = field(default_factory=dict)
    inner_invocations_by_index: Dict[int, int] = field(default_factory=dict)
    #: memoized :meth:`site_streams` (never pickled)
    _streams: Optional[SiteStreams] = field(
        default=None, init=False, repr=False, compare=False,
    )
    #: memoized :meth:`kernel_key`
    _kernel_key: Optional[Tuple[str, str]] = field(
        default=None, init=False, repr=False, compare=False,
    )

    @classmethod
    def from_interp(cls, kernel: Kernel, scalars: Dict[str, float],
                    res: InterpResult) -> "FunctionalCallRecord":
        # the interpreter already keys its iteration maps by structural
        # loop position, so the record stores them verbatim
        return cls(
            kernel=kernel,
            scalars=dict(scalars),
            counts=res.counts,
            # the interpreter hands back a ColumnarTrace: store it as-is
            # (no per-access tuple copy; a pickle holds the column buffers)
            trace=res.trace if res.trace is not None else [],
            inner_iterations=res.inner_iterations,
            inner_iters_by_index=dict(res.inner_iters_by_loop),
            inner_invocations_by_index=dict(res.inner_invocations_by_loop),
        )

    def site_streams(self) -> SiteStreams:
        """Per-site element streams, split once and shared read-only by
        every configuration replaying this call."""
        if self._streams is None:
            self._streams = SiteStreams(self.trace)
        return self._streams

    def kernel_key(self) -> Tuple[str, str]:
        """The kernel's name and structural fingerprint: its identity
        for compile memos (``id()`` may be reused once an object is
        garbage collected)."""
        if self._kernel_key is None:
            self._kernel_key = (self.kernel.name, self.kernel.fingerprint())
        return self._kernel_key

    def __getstate__(self) -> Dict[str, object]:
        # a pickle holds the trace only; an unpickled record re-splits it
        return dict(self.__dict__, _streams=None)


@dataclass(frozen=True)
class DatasetInfo:
    """The workload-instance fields replay reads (of the objects, only
    their sizes matter), so a cache hit needs no built instance."""

    short: str
    objects: Mapping[str, MemObject]
    host_insts_per_call: int
    serial_fraction: float


@dataclass
class WorkloadTrace:
    """All functional state one dataset's interpretation produced."""

    workload: str
    scale: str
    calls: List[FunctionalCallRecord]
    info: DatasetInfo
    #: the interpreted outputs matched the NumPy reference (checked once,
    #: by the interpreting cell, when the arrays were final)
    validated: bool
    #: the dataset's compiled kernels, filled and read through
    #: :func:`repro.sim.system.compiled_kernel`: (kernel name,
    #: fingerprint, compile mode, no stream spec) -> compiled kernel.
    #: Never pickled.
    compiled: Dict[tuple, "CompiledKernel"] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )

    @property
    def peak_trace_elems(self) -> int:
        return max((len(c.trace) for c in self.calls), default=0)

    def first_calls(self) -> List[FunctionalCallRecord]:
        """The first call of each kernel (by name and fingerprint), in
        call order: the call each of the dataset's compiles takes its
        trip hint from."""
        first: Dict[Tuple[str, str], FunctionalCallRecord] = {}
        for rec in self.calls:
            first.setdefault(rec.kernel_key(), rec)
        return list(first.values())

    def __getstate__(self) -> Dict[str, object]:
        # a pickle holds the functional record only; compiles are redone
        return dict(self.__dict__, compiled={})


class TraceCache:
    """Bounded LRU store of workload traces."""

    def __init__(self, max_entries: int = 2):
        self.max_entries = max(1, int(max_entries))
        self._entries: "OrderedDict[Tuple[str, str], WorkloadTrace]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, workload: str, scale: str) -> Optional[WorkloadTrace]:
        key = (workload, scale)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            OBS.inc("tracecache.misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        OBS.inc("tracecache.hits")
        return entry

    def put(self, trace: WorkloadTrace) -> None:
        key = (trace.workload, trace.scale)
        self._entries[key] = trace
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def peak_trace_elems(self, workload: str, scale: str) -> int:
        """Longest per-call trace of a resident entry (0 when absent).

        A pure query: does not count as a hit/miss and does not touch
        LRU order.
        """
        entry = self._entries.get((workload, scale))
        return entry.peak_trace_elems if entry is not None else 0
