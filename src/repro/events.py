"""Discrete-event simulation kernel.

Everything timed in the simulator (accelerators, access-unit FSMs, the
host) runs as a *process*: a Python generator that yields commands to the
:class:`Simulator`. Time is kept in integer **picoseconds** so components
in different clock domains (2 GHz host/IO cores vs. 1 GHz CGRA) compose
without rounding drift.

What a process may yield:

* an ``int`` — advance this process by that many picoseconds (a
  negative one is an error).
* :class:`Get` — take one item from a :class:`Channel` (blocks when empty).
* :class:`Put` — add one item to a :class:`Channel` (blocks when full).

A process that yields the same command many times can build it once.

Example::

    sim = Simulator()
    ch = Channel(sim, capacity=2)

    def producer():
        for i in range(4):
            yield Put(ch, i)
            yield 500

    def consumer(out):
        take = Get(ch)
        for _ in range(4):
            out.append((yield take))

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
    """Base class for the channel commands a process can yield to the
    simulator (a delay is a plain ``int``)."""

    def arm(self, sim: "Simulator", proc: "Process") -> None:
        raise NotImplementedError


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


class Process:
    """Handle to a running simulation process."""

    __slots__ = ("name", "send", "done", "blocked_on")

    def __init__(self, name: str, gen: Generator[Any, Any, Any]):
        self.name = name
        #: the generator's bound ``send``, which resumes the process
        self.send = gen.send
        self.done = False
        #: what the process is blocked on — ``("get", channel)`` or
        #: ``("put", channel)``, formatted lazily for deadlock diagnostics
        #: (blocks are frequent; f-strings per block are not free on the
        #: replay hot path)
        self.blocked_on: Optional[tuple] = None

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
                 "_putters", "max_occupancy")

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
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    # The two arms run once per Get and Put of every replay, so each
    # completes its hand-off in place and pushes the resumes it makes
    # onto the heap itself, with the next sequence numbers, in the order
    # ``Simulator._schedule`` would: a woken getter before its putter,
    # and a getter before the putter it frees. Only a woken process was
    # blocked, so only its ``blocked_on`` is reset. The heap grows only
    # by pushes, so checking ``peak_pending`` once after an arm's pushes
    # finds the same high-water mark as checking after each.
    #
    # Two invariants hold between arms: a putter waits only while the
    # channel is full, and a getter only while it is empty. So a get
    # that finds putters has freed the one slot the oldest of them
    # takes, no getter is waiting for it, and the channel is as full
    # again as the put that filled it left it, which ``max_occupancy``
    # already counts.
    def _arm_get(self, proc: Process) -> None:
        items = self._items
        if not items:
            proc.blocked_on = ("get", self)
            self._getters.append(proc)
            return
        sim = self.sim
        heap = sim._heap
        now = sim._now
        seq = sim._seq + 1
        _heappush(heap, (now, seq, proc, items.popleft()))
        if self._putters:
            putter, item = self._putters.popleft()
            putter.blocked_on = None
            items.append(item)
            seq += 1
            _heappush(heap, (now, seq, putter, None))
        sim._seq = seq
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)

    def _arm_put(self, proc: Process, item: Any) -> None:
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            proc.blocked_on = ("put", self)
            self._putters.append((proc, item))
            return
        sim = self.sim
        heap = sim._heap
        now = sim._now
        seq = sim._seq + 1
        if self._getters:
            getter = self._getters.popleft()
            getter.blocked_on = None
            _heappush(heap, (now, seq, getter, item))
            seq += 1
        else:
            items.append(item)
            if len(items) > self.max_occupancy:
                self.max_occupancy = len(items)
        _heappush(heap, (now, seq, proc, None))
        sim._seq = seq
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)


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

    def spawn(self, name: str, gen: Generator[Any, Any, Any]) -> Process:
        """Register ``gen`` as a new process, runnable at the current time."""
        if not isinstance(gen, Iterator):
            raise SimulationError(
                f"process {name!r} must be a generator, got {type(gen)!r}"
            )
        proc = Process(name, gen)
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
            cmd = proc.send(value)
        except StopIteration:
            proc.done = True
            return
        if cmd.__class__ is int:
            if cmd < 0:
                raise _negative_delay(proc, cmd)
            self._schedule(self._now + cmd, proc, None)
        elif isinstance(cmd, Command):
            cmd.arm(self, proc)
        else:
            raise _not_a_command(proc, cmd)

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
            p for p in self._processes if not p.done and p.blocked_on
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
            # delay pushed inline and a Get or Put handed straight to its
            # channel. The inline delay pushes the entry _schedule would
            # (a running process is never blocked, so it needs no
            # blocked_on reset); the general loop below schedules every
            # delay through _schedule and arms every command through
            # Command.arm, the reference it must match.
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
                        cmd = proc.send(value)
                    except StopIteration:
                        proc.done = True
                        continue
                    cls = cmd.__class__
                    if cls is int:
                        if cmd < 0:
                            raise _negative_delay(proc, cmd)
                        self._seq = seq = self._seq + 1
                        push(heap, (time_ps + cmd, seq, proc, None))
                        if len(heap) > self.peak_pending:
                            self.peak_pending = len(heap)
                    elif cls is Get:
                        cmd.channel._arm_get(proc)
                    elif cls is Put:
                        cmd.channel._arm_put(proc, cmd.item)
                    elif isinstance(cmd, Command):
                        cmd.arm(self, proc)
                    else:
                        raise _not_a_command(proc, cmd)
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


def _negative_delay(proc: Process, ps: int) -> SimulationError:
    return SimulationError(
        f"process {proc.name!r} yielded a negative delay: {ps}"
    )


def _not_a_command(proc: Process, cmd: Any) -> SimulationError:
    return SimulationError(
        f"process {proc.name!r} yielded {cmd!r}, expected a Command"
    )
