"""Database storage devices: RAM disk or a small array of hard disks.

The paper could only drive the SUT to full utilization with an
OS-managed RAM disk (or "more disks"): with two hard disks the I/O
wait time "would grow dramatically, causing the response time to grow
and the benchmark to fail".  This model is a simple FIFO service
center: ``n_disks`` servers each delivering ``1/service_ms`` requests
per millisecond; RAM disks are the same thing with a ~50 microsecond
service time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.config import DiskConfig
from repro.workload.transactions import Request


class DiskModel:
    """FIFO disk service center advanced tick by tick."""

    def __init__(self, config: DiskConfig, tick_s: float):
        self.config = config
        self.tick_ms = tick_s * 1000.0
        self._queue: Deque[Request] = deque()
        #: Unused service budget carried into the next tick (a request
        #: mid-service at a tick boundary).
        self._carry_ms = 0.0
        self.total_submitted = 0
        self.total_completed = 0
        self.busy_ms = 0.0
        self.wait_samples = 0
        #: Fault hook: a disk_degraded fault multiplies per-request
        #: service time.  1.0 — the default — is exactly the pre-fault
        #: behavior.
        self.service_factor = 1.0

    def submit(self, request: Request) -> None:
        self._queue.append(request)
        self.total_submitted += 1

    def submit_batch(self, requests: List[Request]) -> None:
        """:meth:`submit` each request, in order."""
        self._queue.extend(requests)
        self.total_submitted += len(requests)

    def drop_all(self) -> List[Request]:
        """A crash loses all queued I/O: return and clear the queue."""
        dropped = list(self._queue)
        self._queue.clear()
        self._carry_ms = 0.0
        return dropped

    def tick(self) -> List[Request]:
        """Advance one tick; returns requests whose I/O completed."""
        budget = self._carry_ms + self.tick_ms * self.config.n_disks
        service = self.config.service_ms * self.service_factor
        completed: List[Request] = []
        queue = self._queue
        busy_ms = self.busy_ms
        while queue and budget >= service:
            budget -= service
            busy_ms += service
            request = queue.popleft()
            # Request.io_complete, inlined.
            if not request.in_io:
                raise RuntimeError("request was not waiting on I/O")
            request.in_io = False
            completed.append(request)
        self.busy_ms = busy_ms
        self.total_completed += len(completed)
        # Carry at most one service quantum of residual budget so an
        # empty queue does not bank unlimited capacity.  The cap is the
        # *un-degraded* quantum: capping against a fault-inflated
        # quantum would bank many healthy quanta of free capacity for
        # the tick a disk_degraded fault clears.
        carry_cap = min(service, self.config.service_ms)
        self._carry_ms = min(budget, carry_cap) if self._queue else 0.0
        self.wait_samples += len(self._queue)
        return completed

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def utilization(self, n_ticks: int) -> float:
        """Fraction of total disk capacity consumed over ``n_ticks``."""
        if n_ticks <= 0:
            return 0.0
        capacity = n_ticks * self.tick_ms * self.config.n_disks
        return self.busy_ms / capacity

    def mean_queue_length(self, n_ticks: int) -> float:
        return self.wait_samples / n_ticks if n_ticks else 0.0
