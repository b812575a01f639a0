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
wake order, a blocked process at the end of a run as a deadlock, and
the ``run(until_ps=...)`` pause/resume contract (the popped over-horizon
event must not be lost). The ``[False]`` ids
run the unbounded loop, which pushes an int delay inline and hands a
``Get`` or ``Put`` straight to its channel. The ``[True]`` ids run the
general loop, which schedules every delay through ``Simulator._schedule``
and arms every command through ``Command.arm``: they pin the semantics
of those methods, the reference the unbounded loop must match push for
push
(``tests/test_events.py::test_inline_arms_match_command_arm`` checks
that the two loops agree on drawn process networks).
"""

import pytest

from repro import envcfg
from repro.energy import EnergyLedger
from repro.errors import DeadlockError
from repro.events import (
    Channel,
    Get,
    Put,
    Simulator,
)
from repro.experiments.runner import BASELINE, PAPER_CONFIGS, ResultMatrix
from repro.mem.hierarchy import MemoryHierarchy
from repro.noc import TrafficLedger
from repro.obs import OBS
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
    lines with one batched hierarchy call, on the chunk's (home, lines)
    segments of a walk bound for the run, into its process's tally;
    each process charges its tally once."""
    calls = []
    charged = []
    real_fetch = MemoryHierarchy.accel_line_fetch_batch
    real_charge = MemoryHierarchy.charge_accel

    def spy(self, walk, c, is_write, tally):
        lines, homes, starts, cuts = walk
        calls.append(([(homes[s], lines[starts[s]:starts[s + 1]])
                       for s in range(cuts[c], cuts[c + 1])], tally))
        return real_fetch(self, walk, c, is_write, tally)

    def charge_spy(self, tally):
        charged.append(tally)
        return real_charge(self, tally)

    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
    monkeypatch.setattr(MemoryHierarchy, "accel_line_fetch_batch", spy)
    monkeypatch.setattr(MemoryHierarchy, "charge_accel", charge_spy)
    result = simulate_workload(ALL_WORKLOADS["fdt"].build("tiny"),
                               "dist_da_f", machine=experiment_machine())
    assert result.validated
    assert calls
    for step, _ in calls:
        for home, lines in step:
            assert isinstance(home, int) and lines
            assert all(isinstance(addr, int) for addr in lines)
    tallies = {id(tally) for _, tally in calls}
    assert len(tallies) < len(calls)  # a tally serves a process's chunks
    assert tallies <= {id(tally) for tally in charged}
    assert len({id(tally) for tally in charged}) == len(charged)


#: what the tiny 12x6 matrix's offload replay dispatches: events, runs,
#: the deepest heap and the fullest channel
TINY_MATRIX_REPLAY = {"engine.sim_events": 218_488,
                      "engine.offload_runs": 185}
TINY_MATRIX_PEAKS = {"engine.sim_peak_pending": 21,
                     "engine.chan_max_occupancy": 8}


@pytest.mark.parametrize("jobs", (1, 2))
def test_tiny_matrix_dispatches_the_pinned_events(monkeypatch, jobs):
    """Every chunk command costs one event, so the tiny matrix dispatches
    as many events as it always has, serially or across workers: a
    change that adds or merges events fails here even when every
    result holds."""
    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
    OBS.reset()
    try:
        ResultMatrix(scale="tiny").run_all(jobs=jobs)
        counts = {name: OBS.counter(name) for name in TINY_MATRIX_REPLAY}
        peaks = {name: OBS.maxima.get(name) for name in TINY_MATRIX_PEAKS}
    finally:
        OBS.reset()
    assert counts == TINY_MATRIX_REPLAY
    assert peaks == TINY_MATRIX_PEAKS


def results_of(result):
    """Every metric of a cell that a figure or table reads."""
    return (result.time_ps, result.insts, result.mem_ops, result.energy_nj,
            result.movement_bytes, result.mmio_bytes,
            result.accel_iterations, result.validated,
            result.traffic_breakdown, result.cache_stats.as_dict(),
            result.energy.by_event())


@pytest.mark.parametrize("config,workload", [
    pytest.param("dist_da_f", "fdt", id="fdt"),
    pytest.param("dist_da_f", "pr", id="pr"),
    pytest.param("mono_ca", "fdt", id="mono_ca-fdt"),
    pytest.param("mono_ca", "pr", id="mono_ca-pr"),
])
def test_chunk_walks_make_no_ledger_call(monkeypatch, config, workload):
    """A chunk walk only walks the cache set dicts: no traffic record,
    energy charge or DRAM charge runs while a walk that
    ``_RunContext.build`` binds (``fetch_lines``, ``access_elems``) is
    on the stack. The processes charge their tallies when they end,
    and the cell equals its ``REPRO_REFERENCE=1`` run. ``fdt`` has
    stream fills and drains, ``pr`` indirect element accesses; on
    Mono-CA both go through the private cache."""
    walking = []
    walks = dict.fromkeys(("fetch_lines", "access_elems"), 0)
    real_build = engine._RunContext.build

    def build(ctx):
        real_build(ctx)
        for name in walks:
            def walk(*args, real=getattr(ctx, name), name=name):
                walking.append(name)
                walks[name] += 1
                try:
                    return real(*args)
                finally:
                    walking.pop()

            setattr(ctx, name, walk)

    def outside_walks(owner, name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            if walking:
                raise AssertionError(f"{name} inside {walking[-1]}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    def run():
        return simulate_workload(ALL_WORKLOADS[workload].build("tiny"),
                                 config, machine=experiment_machine())

    monkeypatch.delenv(envcfg.REPRO_REFERENCE.name, raising=False)
    monkeypatch.setattr(engine._RunContext, "build", build)
    outside_walks(TrafficLedger, "record")
    outside_walks(EnergyLedger, "charge")
    outside_walks(MemoryHierarchy, "_dram_traffic")
    result = run()
    monkeypatch.undo()
    assert walks["fetch_lines"]
    assert walks["access_elems"] or workload == "fdt"
    monkeypatch.setenv(envcfg.REPRO_REFERENCE.name, "1")
    assert results_of(result) == results_of(run())


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
                yield 100
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
            yield 50
            for i in range(3):
                yield Put(ch, i)

        for tag in ("first", "second", "third"):
            sim.spawn(tag, getter(tag))
        sim.spawn("prod", producer())
        run(sim, bounded)
        assert woke == [("first", 0), ("second", 1), ("third", 2)]

    def test_non_daemon_blocked_is_deadlock(self, bounded):
        sim = Simulator()
        ch = Channel(sim, name="stuck")

        def starved():
            yield Get(ch)

        sim.spawn("starved", starved())
        with pytest.raises(DeadlockError, match=r"starved on get\(stuck\)"):
            run(sim, bounded)

    def test_run_until_does_not_lose_horizon_event(self, bounded):
        """Regression: run(until_ps) used to pop the first over-horizon
        event and return without re-pushing it, so a resumed run lost
        the wakeup entirely."""
        sim = Simulator()
        log = []

        def sleeper():
            yield 100
            log.append(("woke", sim.now))

        sim.spawn("sleeper", sleeper())
        assert run(sim, bounded, until_ps=50) == 50
        assert log == []  # paused before the wakeup, nothing lost
        assert run(sim, bounded) == 100
        assert log == [("woke", 100)]

    def test_run_until_executes_events_at_horizon(self, bounded):
        sim = Simulator()
        log = []

        def sleeper(ps, tag):
            yield ps
            log.append(tag)

        sim.spawn("at", sleeper(100, "at"))
        sim.spawn("past", sleeper(101, "past"))
        run(sim, bounded, until_ps=100)
        assert log == ["at"]
        run(sim, bounded)
        assert log == ["at", "past"]

    def test_run_until_resume_preserves_order(self, bounded):
        """Events beyond the horizon fire in original order on resume."""
        sim = Simulator()
        log = []

        def sleeper(tag):
            yield 200
            log.append(tag)

        for tag in ("x", "y", "z"):
            sim.spawn(tag, sleeper(tag))
        run(sim, bounded, until_ps=50)
        assert log == []
        run(sim, bounded)
        assert log == ["x", "y", "z"]
