"""Outside-in layer spans for the benchmark's traced runs.

The benchmark never edits the program: a traced run replaces the public
functions listed in :data:`LAYERS` with wrappers that time each call
and put it back afterwards. Every call becomes one span (layer, start,
end, parent span, cell id) kept in memory; a layer's self time is its
span time minus the time its child spans cover. Spans nest per thread.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, "module[:Class]", attribute names) — the wrapped public calls.
#: Functions are patched where the caller looks them up: the system
#: simulator binds ``compile_kernel`` at import, the compiler pipeline
#: binds ``assert_kernel_verified``, everything else is a module or class
#: attribute resolved at call time.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("workloads.validate", "repro.workloads.base:WorkloadInstance",
     ("validate",)),
    ("ir.interp", "repro.ir.vecinterp:VecInterpreter", ("run",)),
    ("ir.interp", "repro.ir.interp:Interpreter", ("run",)),
    ("ir.nestjit", "repro.ir.nestjit", ("compiled_nest",)),
    ("analysis.verify", "repro.analysis.verifier",
     ("assert_kernel_verified",)),
    ("analysis.verify", "repro.compiler.pipeline",
     ("assert_kernel_verified",)),
    ("compiler", "repro.sim.system", ("compile_kernel",)),
    ("sim.tracecache", "repro.sim.tracecache:TraceCache", ("get", "put")),
    ("sim.ooo", "repro.sim.ooo:OooModel", ("run",)),
    ("runtime.engine", "repro.runtime.engine:OffloadEngine", ("run",)),
    ("runtime.fastsim", "repro.runtime.fastsim", ("replay",)),
    ("events", "repro.events:Simulator", ("run",)),
    ("mem.host_batch", "repro.mem.hierarchy:MemoryHierarchy",
     ("host_access_batch",)),
    ("mem.accel_batch", "repro.mem.hierarchy:MemoryHierarchy",
     ("accel_line_fetch_batch", "accel_elem_access_batch",
      "l3_demand_batch")),
    ("mem.accounting", "repro.mem.hierarchy:MemoryHierarchy",
     ("close_accounting",)),
    ("sim.system", "repro.sim.system:SystemSimulator", ("run",)),
    ("dse.store", "repro.dse.store:SqliteResultStore",
     ("append", "get", "load")),
)

#: every layer reported, in report order (``workloads.build`` wraps the
#: build method of each workload class)
LAYER_NAMES: Tuple[str, ...] = ("workloads.build",) + tuple(
    dict.fromkeys(name for name, _, _ in LAYERS))

#: span tuple fields
SPAN_FIELDS = ("id", "layer", "parent", "cell", "start", "end", "self_s")


def _resolve(target: str):
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs the layer wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, layer: str,
             hook: Optional[Callable] = None,
             starts_cell: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``hook(call, *args, **kwargs)``, when given, runs inside the span
        and must return ``call(*args, **kwargs)``; it records counts.
        With ``starts_cell``, each call opens a new cell id on its thread
        (every simulated cell starts by building its workload).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        call = functools.partial(hook, original) if hook else original
        stack_of = self._stack
        spans = self.spans
        ids = self._ids
        cells = self._cells
        local = self._local
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if starts_cell:
                local.cell = next(cells)
            stack = stack_of()
            # [id, parent id, cell, child seconds]
            frame = [next(ids), stack[-1][0] if stack else None,
                     getattr(local, "cell", None), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][3] += dur
                spans.append((frame[0], layer, frame[1], frame[2], start,
                              end, dur - frame[3]))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- install / restore -------------------------------------------------
    def install(self) -> None:
        """Wrap every layer of :data:`LAYERS` plus each workload's build."""
        from repro.workloads import ALL_WORKLOADS

        tracer = self

        def interp_hook(call, interp, *args, **kwargs):
            before = _nest_counts(interp)
            result = call(interp, *args, **kwargs)
            after = _nest_counts(interp)
            for name, b, a in zip(NEST_COUNTS, before, after):
                tracer.count(name, a - b)
            tracer.count("ir.trace_elems", len(result.trace or ()))
            return result

        seen = set()
        for workload in ALL_WORKLOADS.values():
            cls = type(workload)
            if cls not in seen:
                seen.add(cls)
                self.wrap(cls, "build", "workloads.build",
                          starts_cell=True)
        for layer, target, attrs in LAYERS:
            owner = _resolve(target)
            for attr in attrs:
                self.wrap(owner, attr, layer,
                          interp_hook if layer == "ir.interp" else None)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


#: interpreter attributes counting how each loop nest ran
NEST_COUNTS = ("ir.vec_nests", "ir.fallback_nests", "ir.jit_nests")


def _nest_counts(interp) -> Tuple[int, int, int]:
    return (getattr(interp, "vectorized_nests", 0),
            getattr(interp, "fallback_nests", 0),
            getattr(interp, "jit_nests", 0))


def layer_totals(spans: Sequence[tuple]) -> Dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every span layer."""
    out: Dict[str, float] = {}
    for span in spans:
        layer, self_s = span[1], span[6]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
    return out


def covered_seconds(spans: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of top-level span intervals inside [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted((s[4], min(s[5], hi)) for s in spans
                             if s[2] is None):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total
