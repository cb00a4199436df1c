"""Tests for the supervised process pool (timeouts, crashes, retries)."""

import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.experiments.supervisor import (
    DEFAULT_POLICY,
    SupervisedOutcome,
    SupervisorPolicy,
    TaskFailedError,
    TaskStats,
    supervise,
)

#: A fast-retry policy so failure tests don't sleep for real.
FAST = SupervisorPolicy(
    max_attempts=3, backoff_base_s=0.0, backoff_cap_s=0.0, jitter=0.0
)


def _claim(path: str) -> bool:
    """First caller (across processes) wins; later callers lose."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


# Top-level so they pickle into pool workers.
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _flaky(arg):
    marker, x = arg
    if _claim(marker):
        raise RuntimeError("transient failure")
    return x * 10


def _kill_once(arg):
    marker, x = arg
    if _claim(marker):
        os._exit(99)
    return x + 1


def _hang_once(arg):
    marker, seconds, x = arg
    if _claim(marker):
        time.sleep(seconds)
    return x - 1


class TestPolicy:
    def test_backoff_field_names_match_retry_policy(self):
        """The duck-typing contract with workload.faults.backoff_delay_s."""
        from repro.config import RetryPolicy

        for name in ("backoff_base_s", "backoff_factor", "backoff_cap_s", "jitter"):
            assert hasattr(RetryPolicy(), name)
            assert hasattr(DEFAULT_POLICY, name)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(task_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(pool_failure_limit=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(jitter=1.0)


class TestHappyPath:
    def test_results_in_task_order(self):
        outcome = supervise(_square, list(range(7)), jobs=3, policy=FAST)
        assert outcome.results == [x * x for x in range(7)]
        assert outcome.pool_failures == 0
        assert not outcome.degraded_serial
        assert all(s.attempts == 1 and s.retries == 0 for s in outcome.stats)

    def test_serial_jobs_one(self):
        outcome = supervise(_square, [3, 4], jobs=1, policy=FAST)
        assert outcome.results == [9, 16]

    def test_empty_tasks(self):
        outcome = supervise(_square, [], jobs=2, policy=FAST)
        assert outcome.results == []
        assert outcome.stats == []

    def test_on_result_fires_per_completion(self):
        seen = []
        supervise(
            _square,
            [1, 2, 3],
            jobs=2,
            policy=FAST,
            on_result=lambda i, value, st: seen.append((i, value, st.attempts)),
        )
        assert sorted(seen) == [(0, 1, 1), (1, 4, 1), (2, 9, 1)]


class TestErrorRetry:
    def test_transient_error_retried(self, tmp_path):
        marker = str(tmp_path / "flaky")
        outcome = supervise(_flaky, [(marker, 7)], jobs=2, policy=FAST)
        assert outcome.results == [70]
        assert outcome.stats[0].attempts == 2
        assert outcome.stats[0].retries == 1
        assert outcome.stats[0].errors == 1

    def test_deterministic_error_exhausts_budget(self):
        with pytest.raises(TaskFailedError) as err:
            supervise(_boom, [1], jobs=2, policy=FAST)
        assert err.value.index == 0
        assert err.value.stats.attempts == FAST.max_attempts
        assert isinstance(err.value.__cause__, ValueError)

    def test_serial_path_retries_too(self, tmp_path):
        marker = str(tmp_path / "flaky-serial")
        outcome = supervise(_flaky, [(marker, 3)], jobs=1, policy=FAST)
        assert outcome.results == [30]
        assert outcome.stats[0].retries == 1


class TestWorkerCrash:
    def test_killed_worker_recovered(self, tmp_path):
        marker = str(tmp_path / "kill")
        tasks = [(marker, x) for x in range(4)]
        outcome = supervise(_kill_once, tasks, jobs=2, policy=FAST)
        assert outcome.results == [x + 1 for x in range(4)]
        assert outcome.pool_failures == 1
        assert sum(s.worker_crashes for s in outcome.stats) >= 1

    def test_degrades_to_serial_after_pool_failure_limit(self, tmp_path):
        policy = SupervisorPolicy(
            max_attempts=4,
            backoff_base_s=0.0,
            backoff_cap_s=0.0,
            jitter=0.0,
            pool_failure_limit=1,
        )
        marker = str(tmp_path / "kill-degrade")
        tasks = [(marker, x) for x in range(3)]
        outcome = supervise(_kill_once, tasks, jobs=2, policy=policy)
        # One crash trips the limit; the survivors run serially
        # in-process (where _claim's marker already exists, so the
        # retried task completes normally).
        assert outcome.results == [x + 1 for x in range(3)]
        assert outcome.degraded_serial
        assert outcome.pool_failures == 1

    def test_pool_broken_before_submit_recovered(self, monkeypatch):
        """A pool a dead worker already broke raises on ``submit``."""

        class BreaksOnSecondSubmit:
            """Runs tasks in-process; the second submit of the sweep
            finds the pool broken."""

            submits = 0

            def __init__(self, max_workers, initializer=None):
                pass

            def submit(self, fn, arg):
                type(self).submits += 1
                if type(self).submits == 2:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                future.set_result(fn(arg))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(
            "repro.experiments.supervisor.ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        outcome = supervise(_square, list(range(4)), jobs=2, policy=FAST)
        assert outcome.results == [x * x for x in range(4)]
        # Task 0 was in flight: one crash attempt, then a clean rerun.
        # Task 1 never ran, so its refused submit is not charged.
        assert outcome.stats[0] == TaskStats(attempts=2, worker_crashes=1)
        assert outcome.stats[1:] == [TaskStats(attempts=1) for _ in range(3)]
        assert outcome.pool_failures == 1
        assert not outcome.degraded_serial


class TestTimeout:
    def test_hung_task_times_out_and_retries(self, tmp_path):
        policy = SupervisorPolicy(
            task_timeout_s=0.8,
            max_attempts=3,
            backoff_base_s=0.0,
            backoff_cap_s=0.0,
            jitter=0.0,
        )
        marker = str(tmp_path / "hang")
        tasks = [(marker, 3.0, x) for x in range(2)]
        outcome = supervise(_hang_once, tasks, jobs=2, policy=policy)
        assert outcome.results == [x - 1 for x in range(2)]
        assert sum(s.timeouts for s in outcome.stats) == 1
        assert outcome.pool_failures == 1

    def test_fast_tasks_unaffected_by_timeout_policy(self):
        policy = SupervisorPolicy(
            task_timeout_s=30.0, backoff_base_s=0.0, backoff_cap_s=0.0, jitter=0.0
        )
        outcome = supervise(_square, [1, 2, 3, 4], jobs=2, policy=policy)
        assert outcome.results == [1, 4, 9, 16]
        assert all(s.timeouts == 0 for s in outcome.stats)


class TestOutcomeShape:
    def test_stats_align_with_tasks(self):
        outcome = supervise(_square, [5, 6], jobs=2, policy=FAST)
        assert isinstance(outcome, SupervisedOutcome)
        assert len(outcome.stats) == 2
        assert all(isinstance(s, TaskStats) for s in outcome.stats)
