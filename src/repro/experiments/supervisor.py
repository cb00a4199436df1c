"""Supervised process-pool execution for multi-experiment sweeps.

``ProcessPoolExecutor.map`` — what the sweep fan-out used before this
module — has an all-or-nothing failure model: one worker segfaulting,
one task hanging, or one unpicklable exception aborts the entire
sweep.  :func:`supervise` wraps the pool in a supervisor that treats
those as *events to recover from*:

* **per-task wall-clock timeouts** — a task that exceeds
  ``policy.task_timeout_s`` is abandoned; the pool is torn down (the
  only way to reclaim a genuinely hung worker) and the task re-queued;
* **crashed-worker detection** — a worker dying mid-task (signal,
  ``os._exit``, OOM kill) surfaces as ``BrokenProcessPool`` on every
  in-flight future; the supervisor rebuilds the pool and re-queues the
  lost tasks;
* **bounded retry with exponential backoff + jitter** — failed tasks
  retry up to ``policy.max_attempts`` total attempts, spaced by the
  *same* :func:`repro.workload.faults.backoff_delay_s` the simulated
  Driver uses (the policy dataclass deliberately mirrors
  :class:`repro.config.RetryPolicy`'s backoff field names so the
  helper is reused verbatim);
* **graceful degradation to serial** — after
  ``policy.pool_failure_limit`` pool teardowns the supervisor stops
  trusting multiprocessing on this host and drains the remaining queue
  serially in-process (where a per-task timeout cannot be enforced,
  but nothing else can crash the sweep either).

Results are returned **indexed by task order**, so callers keep their
merge-in-catalog-order guarantee no matter how chaotic the execution
history was.  Per-task :class:`TaskStats` (attempts, retries,
timeouts, crash/error counts) feed the sweep's ``--stats-json``
artifact.

Tasks must be pure for this to be sound: a task abandoned on timeout
may still complete in a background worker of a dead pool, so dispatch
is at-least-once, never exactly-once.  Every ``reproduce-all`` catalog
entry is a pure function of its config (that is what makes the run
cache correct), so duplicated execution only ever wastes time.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.workload.faults import backoff_delay_s


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervised pool treats timeouts, crashes and retries.

    The ``backoff_*``/``jitter`` field names intentionally mirror
    :class:`repro.config.RetryPolicy` so
    :func:`repro.workload.faults.backoff_delay_s` accepts either.
    """

    #: Per-task wall-clock budget; ``None`` disables timeout policing.
    task_timeout_s: Optional[float] = None
    #: Total attempts per task (first try included).
    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap_s: float = 5.0
    #: Uniform multiplicative jitter fraction on each backoff delay.
    jitter: float = 0.5
    #: Pool teardowns (crash or timeout) tolerated before the
    #: supervisor degrades to serial in-process execution.
    pool_failure_limit: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.pool_failure_limit < 1:
            raise ValueError("pool_failure_limit must be >= 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")


DEFAULT_POLICY = SupervisorPolicy()


@dataclass
class TaskStats:
    """Per-task execution history, as seen by the supervisor."""

    #: Executions attributed a definite outcome (success, error, crash
    #: or timeout).  Executions lost to *another* task's teardown are
    #: re-queued without charge.
    attempts: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    errors: int = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class SupervisedOutcome:
    """Everything :func:`supervise` knows at the end of a sweep."""

    results: List[Any]
    stats: List[TaskStats]
    #: Pool teardowns survived (crashes + timeouts).
    pool_failures: int = 0
    #: True once the supervisor fell back to serial execution.
    degraded_serial: bool = False


class TaskFailedError(RuntimeError):
    """A task exhausted ``max_attempts``; the sweep cannot complete."""

    def __init__(self, index: int, stats: TaskStats, cause: Optional[BaseException]):
        self.index = index
        self.stats = stats
        detail = (
            f"attempts={stats.attempts} timeouts={stats.timeouts} "
            f"crashes={stats.worker_crashes} errors={stats.errors}"
        )
        super().__init__(
            f"task {index} failed after exhausting its retry budget ({detail})"
            + (f": {cause!r}" if cause is not None else "")
        )
        self.__cause__ = cause


#: Sentinel kinds for a failed execution attempt.
_TIMEOUT, _CRASH, _ERROR = "timeout", "crash", "error"


def supervise(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int,
    policy: Optional[SupervisorPolicy] = None,
    *,
    on_result: Optional[Callable[[int, Any, TaskStats], None]] = None,
    worker_initializer: Optional[Callable[[], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
) -> SupervisedOutcome:
    """Run ``fn`` over ``tasks`` under supervision; results in order.

    ``fn`` and every task must be picklable (pool workers) and ``fn``
    must be safe to re-execute (at-least-once dispatch).  ``on_result``
    fires in the parent the moment a task's result is harvested — the
    journal hook: appending there makes completion durable even if the
    parent dies before the sweep finishes.  Raises
    :class:`TaskFailedError` when any task exhausts its attempts.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    rng = rng if rng is not None else random.Random()
    n = len(tasks)
    results: List[Any] = [None] * n
    stats = [TaskStats() for _ in range(n)]
    done = [False] * n
    queue: deque = deque(range(n))
    pool_failures = 0
    degraded = False
    workers = max(1, min(jobs, n)) if n else 1

    def finish(index: int, value: Any) -> None:
        stats[index].attempts += 1
        results[index] = value
        done[index] = True
        if on_result is not None:
            on_result(index, value, stats[index])

    def charge_failure(index: int, kind: str, cause: Optional[BaseException]) -> None:
        """Count one failed attempt; raise when the budget is gone."""
        st = stats[index]
        st.attempts += 1
        if kind == _TIMEOUT:
            st.timeouts += 1
        elif kind == _CRASH:
            st.worker_crashes += 1
        else:
            st.errors += 1
        if st.attempts >= policy.max_attempts:
            raise TaskFailedError(index, st, cause)

    def backoff(index: int) -> None:
        delay = backoff_delay_s(policy, stats[index].attempts + 1, rng)
        if delay > 0:
            sleep(delay)

    def run_serial(index: int) -> None:
        while True:
            try:
                value = fn(tasks[index])
            except Exception as exc:
                charge_failure(index, _ERROR, exc)
                backoff(index)
                continue
            finish(index, value)
            return

    while queue:
        if degraded or workers == 1:
            run_serial(queue.popleft())
            continue

        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=worker_initializer
            )
        except (ImportError, NotImplementedError, OSError):
            # No usable multiprocessing primitives (some sandboxes).
            degraded = True
            continue

        in_flight: Dict[Future, int] = {}
        deadlines: Dict[Future, float] = {}
        # (index, kind, cause) of the failure that ends this pool
        # round; crash teardown collects every in-flight victim.
        failures: List = []
        teardown = False
        try:
            while queue or in_flight:
                # Submit at most `workers` tasks so a submitted task
                # starts (and its timeout clock means) immediately.
                while queue and len(in_flight) < workers:
                    i = queue.popleft()
                    try:
                        future = pool.submit(fn, tasks[i])
                    except BrokenProcessPool:
                        # A worker died before this submit: the task
                        # never ran, so it goes back uncharged, and the
                        # in-flight tasks were lost as in a crash.
                        queue.appendleft(i)
                        for j in sorted(in_flight.values()):
                            failures.append((j, _CRASH, None))
                        in_flight.clear()
                        teardown = True
                        break
                    in_flight[future] = i
                    if policy.task_timeout_s is not None:
                        deadlines[future] = time.monotonic() + policy.task_timeout_s
                if teardown:
                    break
                poll = 0.25
                if deadlines:
                    poll = min(
                        poll, max(0.01, min(deadlines.values()) - time.monotonic())
                    )
                finished, _ = wait(
                    set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
                )
                crashed: List[int] = []
                for future in finished:
                    i = in_flight.pop(future)
                    deadlines.pop(future, None)
                    if future.cancelled():
                        queue.append(i)
                        continue
                    exc = future.exception()
                    if exc is None:
                        finish(i, future.result())
                    elif isinstance(exc, BrokenProcessPool):
                        crashed.append(i)
                    else:
                        failures.append((i, _ERROR, exc))
                if crashed:
                    # One worker died; every in-flight task was lost
                    # with it.  Each gets charged one crash attempt.
                    for i in sorted(crashed + list(in_flight.values())):
                        failures.append((i, _CRASH, None))
                    in_flight.clear()
                    teardown = True
                    break
                if failures:
                    break
                now = time.monotonic()
                for future, deadline in list(deadlines.items()):
                    if now < deadline:
                        continue
                    i = in_flight[future]
                    if future.cancel():
                        # Never started (queued behind a slow sibling):
                        # requeue free of charge with a fresh clock.
                        in_flight.pop(future)
                        deadlines.pop(future)
                        queue.append(i)
                        continue
                    # Running and out of budget: only a pool teardown
                    # can reclaim the (possibly hung) worker.
                    in_flight.pop(future)
                    deadlines.pop(future)
                    failures.append((i, _TIMEOUT, None))
                    teardown = True
                    break
                if teardown:
                    break
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        # Harvest any future that finished while we were deciding to
        # tear down — completed work is never thrown away.
        for future, i in in_flight.items():
            if done[i]:
                continue
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    finish(i, future.result())
                    continue
            queue.append(i)

        for i, kind, cause in failures:
            if not done[i]:
                charge_failure(i, kind, cause)
        if teardown:
            pool_failures += 1
            if pool_failures >= policy.pool_failure_limit:
                degraded = True
        if failures:
            backoff(failures[0][0])
            for i, _, _ in failures:
                if not done[i]:
                    queue.append(i)
        # Keep retry order deterministic-ish: lowest index first.
        queue = deque(sorted(set(queue)))

    return SupervisedOutcome(
        results=results,
        stats=stats,
        pool_failures=pool_failures,
        degraded_serial=degraded,
    )
