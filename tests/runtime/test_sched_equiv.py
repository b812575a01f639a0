"""Offload-replay equivalence gate: the event engine's batched hierarchy
calls must be bit-identical to its per-access calls on every metric a
figure or table reads.

Four workloads of different shapes are simulated under all six
configurations twice on the production path: once as it runs by default,
and once with only ``repro.runtime.engine.reference_enabled`` patched to
return ``True``, so that the offload engine makes one hierarchy call per
line or element while the interpreter, OoO model and streams stay on
their production paths. Every cell is compared field by field, including
the float energy totals (exact equality, not approx). The whole-run
production-vs-reference gate is ``tests/sim/test_fastpath_equiv.py``;
this one isolates the offload replay layer.

The second half pins the event-kernel *semantics* of the one heap core
in both of its dispatch loops — the specialized unbounded loop every
replay run takes, and the general loop that ``until_ps`` /
``max_events`` select: putter FIFO order under a full channel, getter
wake order, ``WaitProcess`` on an already-finished process,
daemon-vs-deadlock classification, ``call_at`` vs process ordering at
equal timestamps, and the ``run(until_ps=...)`` pause/resume contract
(the popped over-horizon event must not be lost). The ``[False]`` ids
run the unbounded loop, which pushes a ``Delay`` inline and hands a
``Get`` or ``Put`` straight to its channel. The ``[True]`` ids run the
general loop, which arms every command through ``Command.arm``: they
pin the semantics of those arm methods, the reference the unbounded
loop must match push for push
(``tests/test_events.py::test_inline_arms_match_command_arm`` checks
that the two loops agree on drawn process networks).
"""

import pytest

from repro import envcfg
from repro.errors import DeadlockError
from repro.events import (
    Channel,
    Delay,
    Get,
    Put,
    Simulator,
    WaitProcess,
)
from repro.experiments.runner import BASELINE, PAPER_CONFIGS, ResultMatrix
from repro.mem.hierarchy import MemoryHierarchy
from repro.params import experiment_machine
from repro.runtime import engine
from repro.sim import simulate_workload
from repro.workloads import ALL_WORKLOADS

WORKLOADS = ("fdt", "bfs", "dis", "spmv")
CONFIGS = (BASELINE,) + PAPER_CONFIGS

#: ``max_events`` guard that routes a run through the general dispatch
#: loop without ever tripping
EVENT_GUARD = 10**6

#: the offload engine's batched hierarchy entry points
ACCEL_BATCH = ("accel_line_fetch_batch", "accel_elem_access_batch",
               "l3_demand_batch")


def run_matrix_mode(monkeypatch, batched: bool):
    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
    if not batched:
        def forbidden(*args, **kwargs):
            raise AssertionError("batched walk reached on per-access side")

        monkeypatch.setattr(engine, "reference_enabled", lambda: True)
        # the per-access side must never batch, or the gate is vacuous
        for attr in ACCEL_BATCH:
            monkeypatch.setattr(MemoryHierarchy, attr, forbidden)
    matrix = ResultMatrix(
        scale="tiny", workloads=WORKLOADS, configs=CONFIGS
    ).run_all()
    monkeypatch.undo()
    return matrix


@pytest.fixture(scope="module")
def both_engines():
    mp = pytest.MonkeyPatch()
    try:
        batched = run_matrix_mode(mp, batched=True)
        per_access = run_matrix_mode(mp, batched=False)
    finally:
        mp.undo()
    return batched, per_access


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS)
def test_sched_engine_bit_identical(both_engines, workload, config):
    batched, per_access = both_engines
    s = batched.results[(workload, config)]
    r = per_access.results[(workload, config)]
    assert s.time_ps == r.time_ps
    assert s.insts == r.insts
    assert s.mem_ops == r.mem_ops
    assert s.energy_nj == r.energy_nj  # exact, not approx
    assert s.movement_bytes == r.movement_bytes
    assert s.mmio_bytes == r.mmio_bytes
    assert s.accel_iterations == r.accel_iterations
    assert s.validated and r.validated
    assert s.traffic_breakdown == r.traffic_breakdown
    assert s.cache_stats.as_dict() == r.cache_stats.as_dict()
    assert s.energy.by_event() == r.energy.by_event()


def test_sched_path_defaults_on(monkeypatch):
    """With ``REPRO_REFERENCE`` unset, offload runs fetch each chunk's
    lines with one batched hierarchy call."""
    calls = []
    real_fetch = MemoryHierarchy.accel_line_fetch_batch

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real_fetch(self, *args, **kwargs)

    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
    monkeypatch.setattr(MemoryHierarchy, "accel_line_fetch_batch", spy)
    result = simulate_workload(ALL_WORKLOADS["fdt"].build("tiny"),
                               "dist_da_f", machine=experiment_machine())
    assert result.validated
    assert calls


# ---------------------------------------------------------------------------
# event-kernel semantics, in both dispatch loops of the heap core
# ---------------------------------------------------------------------------
def run(sim: Simulator, bounded: bool, **kwargs) -> int:
    """``sim.run`` through the general loop when ``bounded``, else the
    specialized unbounded loop (unless ``until_ps`` is given)."""
    if bounded:
        kwargs["max_events"] = EVENT_GUARD
    return sim.run(**kwargs)


@pytest.mark.parametrize("bounded", (False, True))
class TestKernelSemantics:
    def test_putter_fifo_under_full_channel(self, bounded):
        """Blocked putters are released in arrival order, one per slot."""
        sim = Simulator()
        ch = Channel(sim, capacity=1, name="narrow")
        log = []

        def putter(tag):
            yield Put(ch, tag)
            log.append(("put-done", tag, sim.now))

        def consumer():
            for _ in range(4):
                yield Delay(100)
                item = yield Get(ch)
                log.append(("got", item, sim.now))

        for tag in ("a", "b", "c", "d"):
            sim.spawn(f"put-{tag}", putter(tag))
        sim.spawn("cons", consumer())
        run(sim, bounded)
        assert [e for e in log if e[0] == "got"] == [
            ("got", "a", 100), ("got", "b", 200),
            ("got", "c", 300), ("got", "d", 400),
        ]
        # putter "a" filled the only slot immediately; the rest unblock
        # in FIFO order as the consumer frees slots
        assert [e[1] for e in log if e[0] == "put-done"] == [
            "a", "b", "c", "d",
        ]

    def test_getter_wake_order(self, bounded):
        """Getters parked on an empty channel wake in arrival order."""
        sim = Simulator()
        ch = Channel(sim, name="feed")
        woke = []

        def getter(tag):
            item = yield Get(ch)
            woke.append((tag, item))

        def producer():
            yield Delay(50)
            for i in range(3):
                yield Put(ch, i)

        for tag in ("first", "second", "third"):
            sim.spawn(tag, getter(tag))
        sim.spawn("prod", producer())
        run(sim, bounded)
        assert woke == [("first", 0), ("second", 1), ("third", 2)]

    def test_wait_on_already_done_process(self, bounded):
        """WaitProcess on a finished process resumes at the current time
        with the stored result."""
        sim = Simulator()

        def quick():
            yield Delay(10)
            return 42

        def waiter(target, out):
            yield Delay(500)  # target is long done by now
            result = yield WaitProcess(target)
            out.append((result, sim.now))

        target = sim.spawn("quick", quick())
        sim.spawn("waiter", waiter(target, out := []))
        run(sim, bounded)
        assert out == [(42, 500)]

    def test_daemon_may_block_forever(self, bounded):
        sim = Simulator()
        ch = Channel(sim, name="sink")

        def server():
            while True:
                yield Get(ch)

        def client():
            yield Put(ch, "one")
            yield Delay(100)

        sim.spawn("server", server(), daemon=True)
        sim.spawn("client", client())
        assert run(sim, bounded) == 100  # no DeadlockError

    def test_non_daemon_blocked_is_deadlock(self, bounded):
        sim = Simulator()
        ch = Channel(sim, name="stuck")

        def starved():
            yield Get(ch)

        sim.spawn("starved", starved())
        with pytest.raises(DeadlockError, match=r"starved on get\(stuck\)"):
            run(sim, bounded)

    def test_call_at_vs_process_order_at_equal_time(self, bounded):
        """Same-timestamp dispatch follows schedule order."""
        sim = Simulator()
        log = []

        def sleeper():
            yield Delay(100)
            log.append("proc")

        sim.call_at(100, lambda: log.append("cb-early"))
        sim.spawn("sleeper", sleeper())
        sim.call_at(100, lambda: log.append("cb-late"))
        run(sim, bounded)
        # cb-early was enqueued first; the sleeper's wakeup is enqueued
        # when its Delay arms (dispatch at t=0, after cb-late's enqueue)
        assert log == ["cb-early", "cb-late", "proc"]

    def test_run_until_does_not_lose_horizon_event(self, bounded):
        """Regression: run(until_ps) used to pop the first over-horizon
        event and return without re-pushing it, so a resumed run lost
        the wakeup entirely."""
        sim = Simulator()
        log = []

        def sleeper():
            yield Delay(100)
            log.append(("woke", sim.now))

        sim.spawn("sleeper", sleeper())
        assert run(sim, bounded, until_ps=50) == 50
        assert log == []  # paused before the wakeup, nothing lost
        assert run(sim, bounded) == 100
        assert log == [("woke", 100)]

    def test_run_until_executes_events_at_horizon(self, bounded):
        sim = Simulator()
        log = []
        sim.call_at(100, lambda: log.append("at"))
        sim.call_at(101, lambda: log.append("past"))
        run(sim, bounded, until_ps=100)
        assert log == ["at"]
        run(sim, bounded)
        assert log == ["at", "past"]

    def test_run_until_resume_preserves_order(self, bounded):
        """Events beyond the horizon fire in original order on resume."""
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.call_at(200, lambda tag=tag: log.append(tag))
        run(sim, bounded, until_ps=50)
        assert log == []
        run(sim, bounded)
        assert log == ["x", "y", "z"]
