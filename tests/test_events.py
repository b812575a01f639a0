"""Unit and property tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.events import (
    Channel,
    Get,
    Put,
    Simulator,
    cycles_to_ps,
    ps_to_cycles,
)


class TestTimeConversion:
    def test_cycles_to_ps_2ghz(self):
        assert cycles_to_ps(1, 2.0) == 500

    def test_cycles_to_ps_1ghz(self):
        assert cycles_to_ps(3, 1.0) == 3000

    def test_roundtrip(self):
        ps = cycles_to_ps(17, 2.0)
        assert ps_to_cycles(ps, 2.0) == pytest.approx(17)

    def test_bad_frequency_raises(self):
        with pytest.raises(ValueError):
            cycles_to_ps(1, 0)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_integer_cycles_exact_at_2ghz(self, cycles):
        assert ps_to_cycles(cycles_to_ps(cycles, 2.0), 2.0) == cycles


class TestDelay:
    def test_single_delay_advances_time(self):
        sim = Simulator()

        def proc():
            yield 1234

        sim.spawn("p", proc())
        assert sim.run() == 1234

    def test_negative_delay_rejected(self):
        """Under either dispatch loop, naming the process."""
        for bounded in (False, True):
            sim = Simulator()

            def proc():
                yield -1

            sim.spawn("early", proc())
            with pytest.raises(SimulationError,
                               match=r"'early' yielded a negative delay: -1"):
                sim.run(max_events=10) if bounded else sim.run()

    def test_sequential_delays_accumulate(self):
        sim = Simulator()
        times = []

        def proc():
            for _ in range(3):
                yield 100
                times.append(sim.now)

        sim.spawn("p", proc())
        sim.run()
        assert times == [100, 200, 300]

    def test_parallel_processes_interleave(self):
        sim = Simulator()
        order = []

        def proc(name, step):
            for _ in range(2):
                yield step
                order.append((sim.now, name))

        sim.spawn("a", proc("a", 100))
        sim.spawn("b", proc("b", 150))
        sim.run()
        assert order == [(100, "a"), (150, "b"), (200, "a"), (300, "b")]


class TestChannel:
    def test_put_then_get_fifo(self):
        sim = Simulator()
        ch = Channel(sim, capacity=4)
        got = []

        def producer():
            for i in range(4):
                yield Put(ch, i)

        def consumer():
            for _ in range(4):
                item = yield Get(ch)
                got.append(item)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        arrival = []

        def consumer():
            item = yield Get(ch)
            arrival.append((sim.now, item))

        def producer():
            yield 500
            yield Put(ch, "x")

        sim.spawn("c", consumer())
        sim.spawn("p", producer())
        sim.run()
        assert arrival == [(500, "x")]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)
        done_times = []

        def producer():
            yield Put(ch, 1)
            yield Put(ch, 2)  # blocks until consumer drains
            done_times.append(sim.now)

        def consumer():
            yield 700
            yield Get(ch)
            yield Get(ch)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert done_times == [700]

    def test_capacity_zero_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Channel(sim, capacity=0)

    def test_occupancy_statistics(self):
        sim = Simulator()
        ch = Channel(sim, capacity=8)

        def producer():
            for i in range(5):
                yield Put(ch, i)

        def consumer():
            yield 10
            for _ in range(5):
                yield Get(ch)

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert ch.max_occupancy == 5

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_fifo_order_preserved_any_capacity(self, items, capacity):
        """Property: items always come out in the order they went in."""
        sim = Simulator()
        ch = Channel(sim, capacity=capacity)
        got = []

        def producer():
            for item in items:
                yield Put(ch, item)

        def consumer():
            for _ in items:
                got.append((yield Get(ch)))

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        assert got == items

    def test_backpressure_throttles_producer(self):
        """A fast producer into a capacity-2 channel runs at consumer rate."""
        sim = Simulator()
        ch = Channel(sim, capacity=2)
        put_times = []

        def producer():
            for i in range(6):
                yield Put(ch, i)
                put_times.append(sim.now)

        def consumer():
            for _ in range(6):
                yield Get(ch)
                yield 1000

        sim.spawn("p", producer())
        sim.spawn("c", consumer())
        sim.run()
        # first 3 puts immediate (2 slots + 1 handed straight to consumer);
        # thereafter one put per 1000 ps consumer period.
        assert put_times[0] == 0
        assert put_times[-1] >= 3000


class TestDeadlock:
    def test_deadlock_detected(self):
        sim = Simulator()
        ch = Channel(sim, capacity=1)

        def starved():
            yield Get(ch)  # nobody ever puts

        sim.spawn("s", starved())
        with pytest.raises(DeadlockError, match=r"s on get"):
            sim.run()

    def test_mutual_deadlock_detected(self):
        sim = Simulator()
        a = Channel(sim, capacity=1, name="a")
        b = Channel(sim, capacity=1, name="b")

        def p1():
            yield Get(a)
            yield Put(b, 1)

        def p2():
            yield Get(b)
            yield Put(a, 1)

        sim.spawn("p1", p1())
        sim.spawn("p2", p2())
        with pytest.raises(DeadlockError):
            sim.run()

    def test_max_events_guard(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 1

        sim.spawn("spin", spinner())
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.spawn("bad", lambda: None)  # type: ignore[arg-type]

    def test_bad_yield_rejected(self):
        """A delay is an int: a float or a bool is not a command, under
        either dispatch loop."""
        for bad_value in (1.5, True):
            for bounded in (False, True):
                sim = Simulator()

                def bad():
                    yield bad_value

                sim.spawn("bad", bad())
                with pytest.raises(SimulationError,
                                   match="expected a Command"):
                    sim.run(max_events=10) if bounded else sim.run()


def test_observability_counters():
    """events_executed / peak_pending feed repro.obs: one event per
    process resume, and the heap depth high-water mark."""
    sim = Simulator()
    ch = Channel(sim, capacity=2, name="pipe")

    def producer():
        for i in range(8):
            yield 10
            yield Put(ch, i)

    def consumer(out):
        for _ in range(8):
            out.append((yield Get(ch)))

    sim.spawn("prod", producer())
    sim.spawn("cons", consumer(out := []))
    sim.run()
    assert out == list(range(8))
    # producer: spawn + 8 x (delay wakeup, Put resume) = 17;
    # consumer: spawn + 8 Get resumes = 9
    assert sim.events_executed == 26
    assert sim.peak_pending == 2  # both spawns, before the first dispatch


@settings(deadline=None, max_examples=40)
@given(
    delays_p=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                      max_size=8),
    delays_c=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                      max_size=8),
    capacity=st.integers(min_value=1, max_value=3),
)
def test_random_pipelines_match_recurrence(delays_p, delays_c, capacity):
    """Property: a producer/consumer pair over a bounded channel follows
    the marked-graph recurrence exactly — put ``i`` completes once item
    ``i - capacity`` has been taken, get ``i`` once item ``i`` was put."""
    n = len(delays_p)
    sim = Simulator()
    ch = Channel(sim, capacity=capacity, name="pipe")
    puts, gets = [], []

    def producer():
        for i, d in enumerate(delays_p):
            yield d
            yield Put(ch, i)
            puts.append((i, sim.now))

    def consumer():
        for i in range(n):
            yield delays_c[i % len(delays_c)]
            item = yield Get(ch)
            gets.append((item, sim.now))

    sim.spawn("prod", producer())
    sim.spawn("cons", consumer())
    end = sim.run()

    put_t, got_t = [0] * n, [0] * n
    t_p = t_c = 0
    for i in range(n):
        t_p += delays_p[i]
        if i >= capacity:
            t_p = max(t_p, got_t[i - capacity])
        put_t[i] = t_p
        t_c = max(t_c + delays_c[i % len(delays_c)], put_t[i])
        got_t[i] = t_c
    assert puts == list(enumerate(put_t))
    assert gets == list(enumerate(got_t))
    assert end == max(put_t[-1], got_t[-1])
    assert ch.max_occupancy <= capacity


#: one command of a drawn process: a delay in ps, a put or get on one of
#: three channels, a wait on another process, or a mid-run spawn of a
#: child that sleeps (spawns are what can raise the heap's high-water
#: mark past its size at the first dispatch)
COMMANDS = st.one_of(
    st.tuples(st.sampled_from(("delay", "spawn")), st.sampled_from((0, 1, 3))),
    st.tuples(st.sampled_from(("put", "get")), st.integers(0, 2)),
)


def run_network(procs, capacities, bounded, simulator=Simulator,
                channel=Channel):
    """Run a drawn process network; return everything the two dispatch
    loops must agree on."""
    sim = simulator()
    chans = [channel(sim, capacity=cap, name=f"c{k}")
             for k, cap in enumerate(capacities)]
    log = []

    def child(tag, ps):
        yield ps
        log.append((tag, "woke", ps, sim.now, None))

    def body(i, commands):
        for k, (op, arg) in enumerate(commands):
            if op == "spawn":
                sim.spawn(f"p{i}.{k}", child((i, k), arg))
                log.append((i, op, arg, sim.now, None))
                continue
            if op == "delay":
                cmd = arg
            elif op == "put":
                cmd = Put(chans[arg], (i, k))
            else:
                cmd = Get(chans[arg])
            got = yield cmd
            log.append((i, op, arg, sim.now, got))
        return i

    for i, commands in enumerate(procs):
        sim.spawn(f"p{i}", body(i, commands))
    try:
        outcome = sim.run(max_events=10**6) if bounded else sim.run()
    except DeadlockError as err:
        outcome = str(err)
    return (log, outcome, sim.events_executed, sim.peak_pending,
            [(ch.max_occupancy, list(ch._items)) for ch in chans])


def stage(source, ps, sink, chunks):
    """One pipeline stage's commands: per chunk, a get from ``source``
    (none for the first stage), a delay, and a put to ``sink`` (none for
    the last), as a fill FSM, a partition and a drain do."""
    commands = []
    for _ in range(chunks):
        if source is not None:
            commands.append(("get", source))
        commands.append(("delay", ps))
        if sink is not None:
            commands.append(("put", sink))
    return commands


@st.composite
def pipelines(draw):
    """A chain of stages over channels 0, 1, ..., spawned in a drawn
    order, then up to three processes of drawn commands. A stage faster
    than the next fills their channel, so gets find putters waiting,
    which few networks of drawn commands alone do."""
    chunks = draw(st.integers(1, 8))
    depth = draw(st.integers(1, 3))
    chain = [
        stage(k - 1 if k else None, draw(st.sampled_from((0, 1, 3))),
              k if k < depth else None, chunks)
        for k in range(depth + 1)
    ]
    order = draw(st.permutations(range(depth + 1)))
    return [chain[k] for k in order] + draw(st.lists(
        st.lists(COMMANDS, max_size=12), max_size=3))


#: drawn process networks: pipelines, or 2–5 processes of drawn commands
PROCS = st.one_of(
    pipelines(),
    st.lists(st.lists(COMMANDS, max_size=12), min_size=2, max_size=5),
)
#: the capacities of the three channels
CAPACITIES = st.lists(st.sampled_from((1, 2, 3, None)), min_size=3,
                      max_size=3)


@settings(deadline=None, max_examples=300)
@given(procs=PROCS, capacities=CAPACITIES)
def test_inline_arms_match_command_arm(procs, capacities):
    """Property: the unbounded loop (inline int delay, Get and Put
    handed straight to the channel) and the general loop's
    ``Simulator._schedule`` and ``Command.arm`` produce the same run: the
    same global order of resumes, times and received items, the same end
    time or deadlock, the same event count and heap high-water mark, and
    the same channel occupancy peaks and leftover items."""
    assert (run_network(procs, capacities, bounded=False)
            == run_network(procs, capacities, bounded=True))


class OracleSimulator(Simulator):
    """A simulator whose ``_schedule`` is a copy of the original one."""

    def _schedule(self, time_ps, proc, value):
        proc.blocked_on = None
        self._seq += 1
        heapq.heappush(self._heap, (time_ps, self._seq, proc, value))
        if len(self._heap) > self.peak_pending:
            self.peak_pending = len(self._heap)


class OracleChannel(Channel):
    """A channel whose arms are the original call chain, kept as an
    oracle that shares no code with the arms it checks: a put tests
    ``full``, then ``_accept`` hands the item to a waiting getter or
    queues it, and a get drains every putter that fits."""

    @property
    def full(self):
        return self.capacity is not None and len(self._items) >= self.capacity

    def _arm_get(self, proc):
        if self._items:
            item = self._items.popleft()
            self.sim._schedule(self.sim.now, proc, item)
            self._drain_putters()
        else:
            proc.blocked_on = ("get", self)
            self._getters.append(proc)

    def _arm_put(self, proc, item):
        if not self.full:
            self._accept(item)
            self.sim._schedule(self.sim.now, proc, None)
        else:
            proc.blocked_on = ("put", self)
            self._putters.append((proc, item))

    def _accept(self, item):
        if self._getters:
            getter = self._getters.popleft()
            getter.blocked_on = None
            self.sim._schedule(self.sim.now, getter, item)
        else:
            self._items.append(item)
            self.max_occupancy = max(self.max_occupancy, len(self._items))

    def _drain_putters(self):
        while self._putters and not self.full:
            putter, item = self._putters.popleft()
            putter.blocked_on = None
            self._accept(item)
            self.sim._schedule(self.sim.now, putter, None)


@settings(deadline=None, max_examples=300)
@given(procs=PROCS, capacities=CAPACITIES, bounded=st.booleans())
def test_arms_match_the_call_chain_oracle(procs, capacities, bounded):
    """Property: the channel arms, which complete each hand-off in
    place, run every drawn network as the original call chain does:
    the same resumes, times and received items, the same end time or
    deadlock, the same event count and heap high-water mark, and the
    same channel occupancy peaks and leftover items, under either
    dispatch loop."""
    assert (run_network(procs, capacities, bounded)
            == run_network(procs, capacities, bounded,
                           simulator=OracleSimulator,
                           channel=OracleChannel))
