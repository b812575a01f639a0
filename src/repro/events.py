"""Discrete-event simulation kernel.

Everything timed in the simulator (accelerators, access-unit FSMs, the
host) runs as a *process*: a Python generator that yields commands to the
:class:`Simulator`. Time is kept in integer **picoseconds** so components
in different clock domains (2 GHz host/IO cores vs. 1 GHz CGRA) compose
without rounding drift.

Commands a process may yield:

* :class:`Delay` — advance this process by N picoseconds.
* :class:`Get` — take one item from a :class:`Channel` (blocks when empty).
* :class:`Put` — add one item to a :class:`Channel` (blocks when full).
* :class:`WaitProcess` — block until another process terminates.

Example::

    sim = Simulator()
    ch = Channel(sim, capacity=2)

    def producer():
        for i in range(4):
            yield Put(ch, i)
            yield Delay(500)

    def consumer(out):
        while True:
            item = yield Get(ch)
            out.append(item)

    sim.spawn("prod", producer())
    sim.spawn("cons", consumer(out := []))
    sim.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, Iterator, List, Optional

from .errors import DeadlockError, SimulationError

PS_PER_NS = 1000

_heappush = heapq.heappush


def cycles_to_ps(cycles: float, freq_ghz: float) -> int:
    """Convert a cycle count at ``freq_ghz`` into integer picoseconds."""
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return int(round(cycles * PS_PER_NS / freq_ghz))


def ps_to_cycles(ps: int, freq_ghz: float) -> float:
    """Convert picoseconds into (fractional) cycles at ``freq_ghz``."""
    return ps * freq_ghz / PS_PER_NS


class Command:
    """Base class for commands a process can yield to the simulator."""

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        raise NotImplementedError


class Delay(Command):
    """Suspend the yielding process for ``ps`` picoseconds."""

    __slots__ = ("ps",)

    def __init__(self, ps: int):
        if ps < 0:
            raise SimulationError(f"negative delay: {ps}")
        self.ps = int(ps)

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        sim._schedule(sim.now + self.ps, proc, None)


class Get(Command):
    """Take the oldest item from ``channel``; blocks while empty."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel"):
        self.channel = channel

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        self.channel._arm_get(proc)


class Put(Command):
    """Append ``item`` to ``channel``; blocks while full."""

    __slots__ = ("channel", "item")

    def __init__(self, channel: "Channel", item: Any):
        self.channel = channel
        self.item = item

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        self.channel._arm_put(proc, self.item)


class WaitProcess(Command):
    """Block until ``target`` terminates; resumes with its return value."""

    __slots__ = ("target",)

    def __init__(self, target: "Process"):
        self.target = target

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.target.done:
            sim._schedule(sim.now, proc, self.target.result)
        else:
            proc.blocked_on = ("wait", self.target)
            self.target._waiters.append(proc)


class Process:
    """Handle to a running simulation process."""

    __slots__ = (
        "name", "_gen", "done", "result", "_waiters", "blocked_on", "daemon"
    )

    def __init__(self, name: str, gen: Generator[Command, Any, Any],
                 daemon: bool = False):
        self.name = name
        self._gen = gen
        self.done = False
        self.result: Any = None
        self._waiters: List["Process"] = []
        #: what the process is blocked on — ``("get", channel)``,
        #: ``("put", channel)`` or ``("wait", process)``, formatted
        #: lazily for deadlock diagnostics (blocks are frequent; f-strings
        #: per block are not free on the replay hot path)
        self.blocked_on: Optional[tuple] = None
        #: daemon processes (e.g. sinks, FSMs that serve forever) may remain
        #: blocked at end of simulation without signalling deadlock.
        self.daemon = daemon

    @property
    def blocked_desc(self) -> Optional[str]:
        """Human-readable description of the blocking operation."""
        if self.blocked_on is None:
            return None
        op, on = self.blocked_on
        return f"{op}({on.name})"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else (self.blocked_desc or "ready")
        return f"<Process {self.name}: {state}>"


class Channel:
    """Bounded FIFO channel with blocking put/get semantics.

    Models a hardware buffer: ``capacity`` is the number of slots. A
    ``capacity`` of ``None`` means unbounded (useful for statistics sinks).
    """

    __slots__ = ("sim", "capacity", "name", "_items", "_getters",
                 "_putters", "total_puts", "total_gets", "max_occupancy")

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = "chan"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"channel capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self._putters: Deque[tuple] = deque()  # (process, item)
        self.total_puts = 0
        self.total_gets = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    # The two arms run once per Get and Put of every replay, so each
    # completes its hand-off in place. Two invariants hold between arms:
    # a putter waits only while the channel is full, and a getter only
    # while it is empty. So a get that finds putters has freed the one
    # slot the oldest of them takes, no getter is waiting for it, and
    # the channel is as full again as the put that filled it left it,
    # which ``max_occupancy`` already counts.
    def _arm_get(self, proc: Process) -> None:
        items = self._items
        if items:
            item = items.popleft()
            self.total_gets += 1
            sim = self.sim
            sim._schedule(sim._now, proc, item)
            if self._putters:
                putter, item = self._putters.popleft()
                self.total_puts += 1
                items.append(item)
                sim._schedule(sim._now, putter, None)
        else:
            proc.blocked_on = ("get", self)
            self._getters.append(proc)

    def _arm_put(self, proc: Process, item: Any) -> None:
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            proc.blocked_on = ("put", self)
            self._putters.append((proc, item))
            return
        self.total_puts += 1
        sim = self.sim
        if self._getters:
            self.total_gets += 1
            sim._schedule(sim._now, self._getters.popleft(), item)
        else:
            items.append(item)
            if len(items) > self.max_occupancy:
                self.max_occupancy = len(items)
        sim._schedule(sim._now, proc, None)


class Simulator:
    """Discrete-event simulator with generator processes.

    Pending events live in one tuple heap ordered by ``(time_ps, seq)``:
    events at equal timestamps dispatch in the order they were
    scheduled.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._processes: List[Process] = []
        self.events_executed = 0
        #: most events simultaneously pending (heap depth)
        self.peak_pending = 0
        self._heap: List[tuple] = []

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def spawn(self, name: str, gen: Generator[Command, Any, Any],
              daemon: bool = False) -> Process:
        """Register ``gen`` as a new process, runnable at the current time.

        Daemon processes are allowed to remain blocked forever; they model
        hardware that services requests for the lifetime of the system.
        """
        if not isinstance(gen, Iterator):
            raise SimulationError(
                f"process {name!r} must be a generator, got {type(gen)!r}"
            )
        proc = Process(name, gen, daemon=daemon)
        self._processes.append(proc)
        self._schedule(self._now, proc, None)
        return proc

    def _schedule(self, time_ps: int, proc: Process, value: Any) -> None:
        proc.blocked_on = None
        self._seq = seq = self._seq + 1
        heap = self._heap
        _heappush(heap, (time_ps, seq, proc, value))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def _step(self, proc: Process, value: Any) -> None:
        try:
            cmd = proc._gen.send(value)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            for waiter in proc._waiters:
                self._schedule(self._now, waiter, proc.result)
            proc._waiters.clear()
            return
        if not isinstance(cmd, Command):
            raise SimulationError(
                f"process {proc.name!r} yielded {cmd!r}, expected a Command"
            )
        cmd.arm(self, proc)

    def run(self, until_ps: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or a limit is hit).

        Returns the final simulation time in picoseconds. Raises
        :class:`DeadlockError` if processes remain blocked with no
        pending events. With ``until_ps`` the run pauses (and may be
        resumed by calling :meth:`run` again) once every event at or
        before the horizon has executed; no event is lost at the pause.
        """
        if not self._dispatch(until_ps, max_events):
            return self._now  # paused at the horizon, events remain
        blocked = [
            p for p in self._processes
            if not p.done and p.blocked_on and not p.daemon
        ]
        if blocked:
            detail = ", ".join(f"{p.name} on {p.blocked_desc}" for p in blocked)
            raise DeadlockError(f"deadlock: blocked processes: {detail}")
        return self._now

    def _dispatch(self, until_ps: Optional[int],
                  max_events: Optional[int]) -> bool:
        """Pop and run events; returns False on a horizon pause."""
        if until_ps is None and max_events is None:
            # specialized dispatch loop for the unbounded case (every
            # replay run): no limit checks, counter kept in a local, the
            # generator resumed without the _step call indirection, a
            # Delay pushed inline and a Get or Put handed straight to its
            # channel. The inline Delay pushes the entry Delay.arm would
            # (a running process is never blocked, so it needs no
            # blocked_on reset); the general loop below arms every
            # command through Command.arm, the reference it must match.
            heap = self._heap
            pop = heapq.heappop
            push = heapq.heappush
            executed = 0
            try:
                while heap:
                    time_ps, _seq, proc, value = pop(heap)
                    self._now = time_ps
                    executed += 1
                    try:
                        cmd = proc._gen.send(value)
                    except StopIteration as stop:
                        proc.done = True
                        proc.result = stop.value
                        for waiter in proc._waiters:
                            self._schedule(time_ps, waiter, stop.value)
                        proc._waiters.clear()
                        continue
                    cls = cmd.__class__
                    if cls is Delay:
                        self._seq = seq = self._seq + 1
                        push(heap, (time_ps + cmd.ps, seq, proc, None))
                        if len(heap) > self.peak_pending:
                            self.peak_pending = len(heap)
                    elif cls is Get:
                        cmd.channel._arm_get(proc)
                    elif cls is Put:
                        cmd.channel._arm_put(proc, cmd.item)
                    elif isinstance(cmd, Command):
                        cmd.arm(self, proc)
                    else:
                        raise SimulationError(
                            f"process {proc.name!r} yielded {cmd!r}, "
                            f"expected a Command"
                        )
            finally:
                self.events_executed += executed
            return True
        while self._heap:
            time_ps, _seq, proc, value = heapq.heappop(self._heap)
            if until_ps is not None and time_ps > until_ps:
                # pause without losing the over-horizon event: push it
                # back with its original sequence number so a resumed
                # run dispatches in the exact original order
                heapq.heappush(self._heap, (time_ps, _seq, proc, value))
                self._now = until_ps
                return False
            self._now = time_ps
            self.events_executed += 1
            if (max_events is not None
                    and self.events_executed > max_events):
                raise SimulationError(
                    f"exceeded max_events={max_events} at t={self._now}ps"
                )
            self._step(proc, value)
        return True
