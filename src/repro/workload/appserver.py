"""The application-server tier: admission, thread pool, CPU scheduling.

WebSphere-like behavior at the level this study needs:

* at most ``thread_pool`` transactions execute concurrently; the rest
  wait in an accept queue (their queueing time counts toward response
  time, which is how an overloaded SUT fails its deadlines);
* running transactions share the CPUs processor-sharing style;
* consumed CPU time is attributed to software components using the
  transaction spec's per-component demand proportions — the source of
  Figure 4's breakdown — and to transaction types — the source of the
  per-window intensity mix used by the microarchitecture bridge.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.config import DegradationPolicy, TransactionSpec, WorkloadConfig
from repro.workload.timeline import COMPONENTS
from repro.workload.transactions import Request


class AppServer:
    """Admission control + processor-sharing CPU scheduler."""

    def __init__(self, config: WorkloadConfig, n_cores: int):
        self.config = config
        self.n_cores = n_cores
        self.accept_queue: Deque[Request] = deque()
        self.running: List[Request] = []
        self.io_blocked = 0
        # Graceful-degradation (brownout) state: consecutive ticks of
        # sustained overload and the current low-priority shed fraction.
        self._overload_ticks = 0
        self.shed_fraction = 0.0
        # Per-type component proportions (normalized once), indexed by
        # ``Request.type_index``.
        self._type_proportions: List[Tuple[float, ...]] = [
            tuple(spec.cpu_ms.get(name, 0.0) / spec.total_cpu_ms for name in COMPONENTS)
            for spec in config.transactions
        ]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, request: Request) -> None:
        self.accept_queue.append(request)

    # ------------------------------------------------------------------
    # Graceful degradation (brownout)
    # ------------------------------------------------------------------
    def update_brownout(self, policy: DegradationPolicy) -> None:
        """Track sustained overload; called once per tick when enabled.

        The shed fraction ramps linearly from 0 at the brownout
        threshold to ``max_shed_fraction`` at ``max_in_flight``, but
        only after the overload has persisted ``sustain_ticks`` ticks
        (momentary bursts are not browned out).
        """
        limit = self.config.max_in_flight
        threshold = policy.brownout_threshold * limit
        if self.in_flight > threshold:
            self._overload_ticks += 1
        else:
            self._overload_ticks = 0
            self.shed_fraction = 0.0
            return
        if self._overload_ticks < policy.sustain_ticks:
            self.shed_fraction = 0.0
            return
        span = max(1.0, limit - threshold)
        depth = min(1.0, (self.in_flight - threshold) / span)
        self.shed_fraction = policy.max_shed_fraction * depth

    def should_shed(
        self,
        spec: TransactionSpec,
        policy: DegradationPolicy,
        rng: Optional[random.Random],
    ) -> bool:
        """Brownout decision for one arriving operation."""
        if self.shed_fraction <= 0.0 or spec.priority >= policy.shed_priority_below:
            return False
        return rng.random() < self.shed_fraction

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def drop_all(self) -> List[Request]:
        """A crash wipes the server: return and clear all held requests.

        Requests blocked on I/O live in the disk queue, not here; the
        caller collects those via ``DiskModel.drop_all`` — this method
        only zeroes the counter tracking them.
        """
        dropped = list(self.running) + list(self.accept_queue)
        self.running = []
        self.accept_queue.clear()
        self.io_blocked = 0
        self._overload_ticks = 0
        self.shed_fraction = 0.0
        return dropped

    def _fill_pool(self) -> None:
        capacity = self.config.thread_pool - len(self.running) - self.io_blocked
        while capacity > 0 and self.accept_queue:
            self.running.append(self.accept_queue.popleft())
            capacity -= 1

    def resume(self, request: Request) -> None:
        """A request's I/O finished; it becomes runnable again."""
        self.io_blocked -= 1
        self.running.append(request)

    def resume_batch(self, requests: List[Request]) -> None:
        """:meth:`resume` each request, in order."""
        self.io_blocked -= len(requests)
        self.running.extend(requests)

    # ------------------------------------------------------------------
    # One scheduling quantum
    # ------------------------------------------------------------------
    def serve(
        self, capacity_ms: float
    ) -> Tuple[List[Request], List[Request], List[float], List[float], float]:
        """Run the pool for one tick of CPU capacity.

        Returns ``(completed, io_submissions, cpu_by_component,
        cpu_by_type, used_ms)``.

        This is the SUT's hottest loop: each request step inlines
        :meth:`Request.consume` and the members it reads, with the same
        float operations, order and ``min``/``max`` tie-breaking, so the
        results are bit-identical to stepping through them
        (``tests/workload/test_driver_appserver.py`` checks this).
        """
        self._fill_pool()
        proportions = self._type_proportions
        cpu_by_type = [0.0] * len(proportions)
        # One accumulator per entry of COMPONENTS, in its order (the
        # unpacking below fails loudly if COMPONENTS changes length).
        c0 = c1 = c2 = c3 = c4 = 0.0
        completed: List[Request] = []
        io_submissions: List[Request] = []
        used = 0.0

        remaining = capacity_ms
        running = self.running
        # Processor sharing via repeated equal division: requests that
        # finish (or block on I/O) early return their unused share.
        while remaining > 1e-9 and running:
            share = remaining / len(running)
            still_running: List[Request] = []
            consumed_this_round = 0.0
            for request in running:
                if request.in_io:
                    raise RuntimeError("request is waiting on I/O")
                before = request.consumed_cpu_ms
                total = request.total_cpu_ms
                want = total - before
                if not want > 0.0:
                    want = 0.0
                if not want < share:
                    want = share
                thresholds = request.io_thresholds
                next_io = request.next_io
                if next_io < len(thresholds):
                    budget = thresholds[next_io] - before
                    if not budget > 0.0:
                        budget = 0.0
                    if budget + 1e-12 < want:
                        want = budget + 1e-12
                else:
                    budget = None
                if want < 0:
                    raise ValueError("cannot consume negative CPU")
                if budget is not None and want >= budget:
                    after = before + budget
                    request.next_io = next_io + 1
                    request.in_io = True
                    io_submissions.append(request)
                    self.io_blocked += 1
                else:
                    after = before + want
                    if budget is None and after >= total:
                        completed.append(request)
                    else:
                        still_running.append(request)
                request.consumed_cpu_ms = after
                delta = after - before
                consumed_this_round += delta
                type_index = request.type_index
                p0, p1, p2, p3, p4 = proportions[type_index]
                c0 += delta * p0
                c1 += delta * p1
                c2 += delta * p2
                c3 += delta * p3
                c4 += delta * p4
                cpu_by_type[type_index] += delta
            self.running = running = still_running
            used += consumed_this_round
            remaining -= consumed_this_round
            # If nothing was consumed this round every runnable request
            # is finished/blocked; stop to avoid spinning.
            if consumed_this_round <= 1e-12:
                break
            self._fill_pool()

        return completed, io_submissions, [c0, c1, c2, c3, c4], cpu_by_type, used

    @property
    def in_flight(self) -> int:
        return len(self.running) + len(self.accept_queue) + self.io_blocked
