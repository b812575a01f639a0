"""The one executor's containment ladder (``repro.dse.executor``).

Units are module-level so the process pool can pickle them. A unit that
must die does so with SIGKILL on its own process, which is what the OOM
killer does to a worker: the pool sees ``BrokenProcessPool``.
"""

import os
import signal
import sys
import time

from repro.dse.executor import Executor, GroupFailed
from repro.obs import OBS


def double(x):
    return 2 * x


def die_always(_):
    os.kill(os.getpid(), signal.SIGKILL)


def die_once(marker):
    """Dies on the first attempt only: the marker file remembers it."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def boom(_):
    raise ValueError("deterministic boom")


def sleepy(seconds):
    time.sleep(seconds)
    return "late"


def count_three(x):
    OBS.inc("test.executor_units", 3)
    return x


def run_all(executor, units):
    futures = [executor.submit(fn, arg) for fn, arg in units]
    return [f.result(timeout=60) for f in futures]


class TestContainment:
    def test_killed_unit_fails_after_one_retry_siblings_survive(self):
        with Executor(2) as executor:
            out = run_all(executor, [(double, 1), (die_always, None),
                                     (double, 2), (double, 3)])
        assert out[0] == 2 and out[2:] == [4, 6]
        failed = out[1]
        assert isinstance(failed, GroupFailed)
        assert failed.attempts == 2
        assert "BrokenProcessPool" in failed.error

    def test_unit_killed_once_costs_only_the_retry(self, tmp_path):
        OBS.reset()
        marker = str(tmp_path / "died-once")
        with Executor(2) as executor:
            out = run_all(executor, [(die_once, marker), (double, 5)])
        assert out == ["survived", 10]
        assert OBS.counter("executor.units_retried") >= 1
        assert OBS.counter("executor.units_failed") == 0

    def test_raising_unit_fails_at_once(self):
        OBS.reset()
        with Executor(2) as executor:
            failed, ok = run_all(executor, [(boom, None), (double, 4)])
        assert failed == GroupFailed("ValueError: deterministic boom", 1)
        assert ok == 8
        assert OBS.counter("executor.units_retried") == 0

    def test_timed_out_unit_fails_at_once_without_retry(self):
        OBS.reset()
        executor = Executor(2, timeout_s=0.2)
        try:
            failed, ok = run_all(executor, [(sleepy, 2.0), (double, 1)])
        finally:
            executor.close(wait=False)
        assert isinstance(failed, GroupFailed)
        assert failed.attempts == 1
        assert "TimeoutError" in failed.error
        assert ok == 2
        assert OBS.counter("executor.units_timeout") == 1
        assert OBS.counter("executor.units_retried") == 0


class TestObservability:
    def test_worker_counts_reach_the_parent_exactly_once(self, tmp_path):
        OBS.reset()
        marker = str(tmp_path / "died-once")
        # more supervisor threads than cores, switching often: a merge
        # that lost an update would break the total
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Executor(4) as executor:
                run_all(executor, [(count_three, i) for i in range(12)]
                        + [(die_once, marker)])
        finally:
            sys.setswitchinterval(interval)
        # the dead attempt's records die with it; each finished unit's
        # snapshot is merged once
        assert OBS.counter("test.executor_units") == 36

    def test_on_start_fires_in_the_parent(self):
        started = []
        with Executor(1) as executor:
            executor.submit(double, 1,
                            on_start=lambda: started.append(os.getpid())
                            ).result(timeout=60)
        assert started == [os.getpid()]

