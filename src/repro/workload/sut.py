"""The System Under Test: the complete tick-driven simulation.

One :class:`SystemUnderTest` binds the driver, web server, application
server, database, disks, heap and collector, advances them on a fixed
0.1 s tick, and produces a :class:`RunResult` with the full timeline,
the GC event log, and every response-time sample.

Stop-the-world collections suspend mutator service: while a pause is
draining, the tick's CPU capacity goes to the collector and admitted
requests wait — which is how GC pauses show up in response times
without any special-casing in the metrics.

Faults and resilience (:mod:`repro.workload.faults`) thread through
the same loop: a :class:`~repro.workload.faults.FaultSchedule` is
queried each tick for the modifiers in force (server crash, DB
slowdown, disk degradation, GC pressure), the driver replays abandoned
operations per the :class:`~repro.config.RetryPolicy`, and the app
server browns out low-priority arrivals per the
:class:`~repro.config.DegradationPolicy`.  With the default
:class:`~repro.config.FaultConfig` every hook is inert and the run is
bit-identical to the pre-fault simulator.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.config import ExperimentConfig, TransactionSpec
from repro.jvm.gc import GcEvent, MarkSweepCompactCollector
from repro.jvm.heap import FlatHeap
from repro.obs import runtime as _obs
from repro.obs.trace import WALL
from repro.util.rng import RngFactory
from repro.util.units import KB, MB
from repro.workload.appserver import AppServer
from repro.workload.database import Database
from repro.workload.disk import DiskModel
from repro.workload.driver import Driver
from repro.workload.faults import (
    NO_FAULTS,
    FaultSchedule,
    ResilienceStats,
    ResilienceTracker,
)
from repro.workload.timeline import COMPONENTS, RunTimeline
from repro.workload.transactions import _KNUTH_LAMBDA_MAX, Request, poisson
from repro.workload.webserver import WebServer

#: Seconds for the live set to ramp to its steady-state size (session
#: state accumulation and cache warm-up).
LIVE_RAMP_S = 180.0
#: Fraction of the steady live set present at t=0 (preloaded data).
LIVE_FLOOR = 0.30
#: Transient live bytes per in-flight request.
LIVE_PER_REQUEST = 256 * KB


@dataclass
class RunResult:
    """Everything a benchmark run produced."""

    config: ExperimentConfig
    timeline: RunTimeline
    gc_events: List[GcEvent]
    #: Per transaction type: completion times (s), nondecreasing.
    completion_times: List[array]
    #: Per transaction type: response seconds, aligned with
    #: ``completion_times``.
    response_times: List[array]
    #: Per transaction type: operations rejected by admission control.
    rejected: List[int]
    db_hit_ratio: float
    disk_utilization: float
    disk_mean_queue: float
    final_heap_used: int
    final_dark_matter: int
    #: Resilience counters (all zeros on a fault-free run).
    resilience: Optional[ResilienceStats] = field(default=None, repr=False)

    def steady_window(self) -> Tuple[float, float]:
        """The (start, end) of the steady-state measurement window."""
        cfg = self.config.workload
        return cfg.ramp_up_s, cfg.duration_s - cfg.ramp_down_s

    @property
    def responses(self) -> List[List[Tuple[float, float]]]:
        """Per type, ``(completion time, response seconds)`` pairs.

        A read-only view built on demand for tests, examples and
        digests; the package reads the columns.
        """
        return [
            list(zip(times, rts))
            for times, rts in zip(self.completion_times, self.response_times)
        ]

    def responses_between(self, type_index: int, t0: float, t1: float) -> array:
        """Response seconds of the type's completions in ``[t0, t1)``."""
        times = self.completion_times[type_index]
        return self.response_times[type_index][
            bisect_left(times, t0) : bisect_left(times, t1)
        ]

    def steady_responses(self, type_index: int) -> List[float]:
        return self.responses_between(type_index, *self.steady_window()).tolist()


def admission(
    specs: Sequence[TransactionSpec], database: Database, rng: random.Random
) -> Callable[[int, float, float, int], Request]:
    """One run's admission: ``admit(type_index, now, inflation, attempt)``
    returns the new :class:`Request`.

    It fuses :meth:`Database.plan_ios` (and the :func:`poisson` it
    calls) with ``Request.__init__`` over per-type tables built once
    here, and draws the same values in the same order from the
    database's stream and ``rng`` (the requests stream), with the same
    float operations — so the requests, the database's counters and both
    streams' states are bit-identical to calling the components
    (``tests/workload/test_admission_oracle.py`` checks this).  The
    database's ``miss_factor`` is read on every admission, as
    ``plan_ios`` does.
    """
    db_rng = database.rng
    db_random = db_rng.random
    request_random = rng.random
    new_request = object.__new__
    lams = [spec.db_queries for spec in specs]
    # poisson's product-form stopping point for the rates that take
    # that branch; None where it draws nothing or sums in log space.
    knuth = [
        pow(2.718281828459045, -lam) if 0.0 < lam <= _KNUTH_LAMBDA_MAX else None
        for lam in lams
    ]
    total_cpu = [spec.total_cpu_ms for spec in specs]
    miss_rate = 1.0 - database.effective_hit_ratio
    # rng.uniform(0.7, 1.35) is 0.7 + (1.35 - 0.7) * rng.random().
    jitter_span = 1.35 - 0.7

    def admit(type_index: int, now: float, inflation: float, attempt: int) -> Request:
        threshold = knuth[type_index]
        if threshold is None:
            queries = poisson(db_rng, lams[type_index])
        else:
            queries = 0
            p = db_random()
            while p > threshold:
                queries += 1
                p *= db_random()
        misses = 0
        if queries:
            database.queries_issued += queries
            miss_p = min(0.98, miss_rate * database.miss_factor)
            for _ in range(queries):
                if db_random() < miss_p:
                    misses += 1
            database.buffer_misses += misses

        total = total_cpu[type_index] * (0.7 + jitter_span * request_random())
        if inflation != 1.0:
            total *= inflation
        # Every field Request.__init__ sets, without its draws.
        request = new_request(Request)
        request.type_index = type_index
        request.spec = specs[type_index]
        request.arrival_s = now
        request.total_cpu_ms = total
        request.consumed_cpu_ms = 0.0
        if misses:
            points = [request_random() for _ in range(misses)]
            points.sort()
            request.io_thresholds = [point * total for point in points]
        else:
            request.io_thresholds = []
        request.next_io = 0
        request.in_io = False
        request.attempt = attempt
        request.abandoned = False
        request.finished = False
        return request

    return admit


class SystemUnderTest:
    """Runs the whole benchmark."""

    def __init__(
        self, config: ExperimentConfig, rng_factory: Optional[RngFactory] = None
    ):
        self.config = config
        self.rngs = rng_factory if rng_factory is not None else RngFactory(config.seed)

    def run(self) -> RunResult:
        cfg = self.config.workload
        jvm = self.config.jvm
        faults = self.config.faults
        n_cores = self.config.machine.topology.n_cores
        tick_s = cfg.tick_s
        tick_ms = tick_s * 1000.0
        capacity_ms = n_cores * tick_ms

        retry = faults.retry
        degradation = faults.degradation
        schedule = FaultSchedule(faults.events)
        resilience_active = faults.is_active
        resilience_rng = (
            self.rngs.stream("workload.resilience") if resilience_active else None
        )

        driver = Driver(
            cfg,
            self.rngs.stream("workload.arrivals"),
            retry_policy=retry,
            retry_rng=resilience_rng,
        )
        appserver = AppServer(cfg, n_cores)
        accept = appserver.accept_queue.append
        database = Database(cfg, self.rngs.stream("workload.db"))
        disk = DiskModel(cfg.disk, tick_s)
        heap = FlatHeap(jvm)
        collector = MarkSweepCompactCollector(jvm.gc, self.rngs.stream("jvm.gc"))

        specs = cfg.transactions
        admit = admission(specs, database, self.rngs.stream("workload.requests"))
        # WebServer.response_overhead_s, inlined at completion:
        # uniform(0.5, 1.5) is 0.5 + 1.0 * random(), and 1.0 * r == r.
        web_random = self.rngs.stream("workload.web").random
        overhead_ms = [
            WebServer.HTTP_OVERHEAD_MS
            if spec.protocol == "web"
            else WebServer.RMI_OVERHEAD_MS
            for spec in specs
        ]
        alloc_per_cpu_ms = [
            spec.alloc_kb * KB / spec.total_cpu_ms for spec in specs
        ]
        # DB2's share of each spec's CPU: how much of a db_slowdown's
        # CPU factor lands on requests of that type.
        db_share = [
            spec.cpu_ms.get("db2", 0.0) / spec.total_cpu_ms for spec in specs
        ]
        live_target = jvm.live_set_mb * MB

        timeline = RunTimeline(tick_s, [s.name for s in specs], n_cores)
        gc_events: List[GcEvent] = []
        completion_times = [array("d") for _ in specs]
        response_times = [array("d") for _ in specs]
        rejected: List[int] = [0 for _ in specs]
        tracker = ResilienceTracker(len(specs))
        #: Per type: (client deadline, request), in admission order.
        watch: List[Deque[Tuple[float, Request]]] = [deque() for _ in specs]

        def client_failure(type_index: int, attempt: int, now: float) -> None:
            """An attempt failed client-side: back off and retry, or
            give the operation up for good."""
            if not driver.schedule_retry(type_index, attempt, now):
                tracker.failed[type_index] += 1

        def try_admit(type_index: int, attempt: int, now: float) -> None:
            if appserver.in_flight >= cfg.max_in_flight:
                # Overloaded: shed load rather than grow without
                # bound (connection refused / timeout upstream).
                rejected[type_index] += 1
                if resilience_active:
                    client_failure(type_index, attempt, now)
                return
            if degradation.enabled and appserver.should_shed(
                specs[type_index], degradation, resilience_rng
            ):
                # Brownout: refuse cheaply now so the client can back
                # off, instead of queueing work that will miss its
                # deadline anyway.
                tracker.shed[type_index] += 1
                client_failure(type_index, attempt, now)
                return
            inflation = 1.0
            if mods.db_cpu_factor != 1.0:
                inflation = 1.0 + (mods.db_cpu_factor - 1.0) * db_share[type_index]
            request = admit(type_index, now, inflation, attempt)
            accept(request)
            if retry.enabled:
                watch[type_index].append(
                    (now + retry.timeout_s(specs[type_index].protocol), request)
                )

        n_ticks = int(round(cfg.duration_s / tick_s))
        gc_wall_remaining_ms = 0.0
        was_down = False

        # Observability is read-only: gauges/counters sample state the
        # loop computes anyway, so the disabled path (obs is None) is
        # bit-identical to an uninstrumented run.
        obs = _obs._ACTIVE
        wall_t0 = time.perf_counter() if obs is not None else 0.0
        if obs is not None:
            heap_gauge = obs.metrics.gauge("sut.heap.used_bytes")
            queue_gauge = obs.metrics.gauge("sut.appserver.in_flight")

        for tick_index in range(n_ticks):
            now = tick_index * tick_s

            # --- Faults in force this tick --------------------------------
            mods = schedule.modifiers_at(now) if schedule.active else NO_FAULTS
            if schedule.active:
                database.miss_factor = mods.db_miss_factor
                disk.service_factor = mods.disk_service_factor
            server_down = mods.server_down
            if server_down and not was_down:
                # Crash edge: every held request is lost; clients see
                # the connection reset immediately.
                for request in appserver.drop_all() + disk.drop_all():
                    request.abandoned = True
                    client_failure(request.type_index, request.attempt, now)
            if server_down:
                tracker.down_ticks.append(tick_index)
            was_down = server_down

            # --- Client-side timeouts -------------------------------------
            if retry.enabled:
                for type_index, pending in enumerate(watch):
                    while pending and pending[0][0] <= now:
                        _, request = pending.popleft()
                        if request.finished or request.abandoned:
                            continue
                        request.abandoned = True
                        tracker.timeouts[type_index] += 1
                        client_failure(type_index, request.attempt, now)

            # --- Arrivals -------------------------------------------------
            if degradation.enabled:
                appserver.update_brownout(degradation)
            arrivals = driver.arrivals(now)
            if server_down:
                # Connection refused: nothing is admitted while down.
                for type_index, count in enumerate(arrivals):
                    tracker.offered[type_index] += count
                    for _ in range(count):
                        client_failure(type_index, 1, now)
                if retry.enabled:
                    for type_index, attempt in driver.due_retries(now):
                        client_failure(type_index, attempt, now)
            else:
                for type_index, count in enumerate(arrivals):
                    tracker.offered[type_index] += count
                    for _ in range(count):
                        try_admit(type_index, 1, now)
                if retry.enabled:
                    for type_index, attempt in driver.due_retries(now):
                        tracker.retries[type_index] += 1
                        try_admit(type_index, attempt, now)

            # --- Live-set evolution ----------------------------------------
            ramp = min(1.0, LIVE_FLOOR + (1.0 - LIVE_FLOOR) * now / LIVE_RAMP_S)
            desired_live = (
                int(live_target * ramp) + appserver.in_flight * LIVE_PER_REQUEST
            )
            if mods.live_extra_bytes:
                desired_live += mods.live_extra_bytes
            # An undersized heap cannot hold the desired live set; the
            # application stalls allocations instead of growing, which
            # manifests as constant GC thrash (the untuned-system
            # behavior the tuning walk demonstrates).
            max_live = heap.capacity_bytes - heap.dark_matter_bytes - 24 * MB
            heap.set_live(max(0, min(desired_live, max_live)))

            # --- GC pause accounting ---------------------------------------
            gc_wall_ms = min(tick_ms, gc_wall_remaining_ms)
            gc_wall_remaining_ms -= gc_wall_ms
            gc_cpu_ms = capacity_ms * (gc_wall_ms / tick_ms)
            mutator_capacity = capacity_ms - gc_cpu_ms
            if server_down:
                mutator_capacity = 0.0

            # --- Mutator service -------------------------------------------
            completed, io_submissions, by_component, by_type, used_ms = (
                appserver.serve(mutator_capacity)
                if mutator_capacity > 0
                else ([], [], [0.0] * len(COMPONENTS), [0.0] * len(specs), 0.0)
            )
            if io_submissions:
                disk.submit_batch(io_submissions)

            # --- Allocation and GC triggering -------------------------------
            alloc_bytes = 0
            for type_index, cpu_ms in enumerate(by_type):
                alloc_bytes += int(cpu_ms * alloc_per_cpu_ms[type_index])
            needs_gc = heap.allocate(alloc_bytes) if alloc_bytes else False
            if needs_gc and gc_wall_remaining_ms <= 0.0:
                event = collector.collect(heap, now)
                gc_events.append(event)
                gc_wall_remaining_ms = event.pause_ms

            # --- Disk progress ----------------------------------------------
            io_done = disk.tick()
            if io_done:
                appserver.resume_batch(io_done)

            # --- Completions -------------------------------------------------
            done_s = now + tick_s
            completions = [0] * len(specs)
            for request in completed:
                if resilience_active:
                    request.finished = True
                    if request.abandoned:
                        # The client already gave up: the server's
                        # effort was wasted and the completion is not
                        # client-visible throughput.
                        tracker.zombie_completions += 1
                        continue
                type_index = request.type_index
                completions[type_index] += 1
                rt = done_s - request.arrival_s
                rt += (0.5 + web_random()) * overhead_ms[type_index] / 1000.0
                completion_times[type_index].append(done_s)
                response_times[type_index].append(rt)

            idle_ms = max(0.0, capacity_ms - used_ms - gc_cpu_ms)
            timeline.record_tick(
                arrivals,
                completions,
                by_component,
                by_type,
                gc_cpu_ms,
                idle_ms,
                disk.queue_length,
                heap.used_bytes,
                appserver.in_flight,
            )
            if obs is not None:
                heap_gauge.set(heap.used_bytes)
                queue_gauge.set(appserver.in_flight)

        tracker.retries_denied = driver.retries_denied
        # Operations the run's end leaves open: held by the server and
        # not given up by their client, or waiting to be retried.
        held = (*appserver.running, *appserver.accept_queue, *disk.queued)
        tracker.open_ops = driver.retries_pending + sum(
            not request.abandoned for request in held
        )
        result = RunResult(
            config=self.config,
            timeline=timeline,
            gc_events=gc_events,
            completion_times=completion_times,
            response_times=response_times,
            rejected=rejected,
            db_hit_ratio=database.observed_hit_ratio,
            disk_utilization=disk.utilization(n_ticks),
            disk_mean_queue=disk.mean_queue_length(n_ticks),
            final_heap_used=heap.used_bytes,
            final_dark_matter=heap.dark_matter_bytes,
            resilience=tracker.freeze(),
        )
        if obs is not None:
            _record_run_observability(
                obs, result, time.perf_counter() - wall_t0
            )
        return result


def _record_run_observability(obs, result: RunResult, wall_s: float) -> None:
    """Fold one finished SUT run into the active observability session.

    Runs *after* the result exists — reads it, never alters it.
    """
    cfg = result.config.workload
    metrics = obs.metrics
    metrics.counter("sut.runs").inc()
    metrics.histogram("sut.run.wall_s").observe(wall_s)
    for type_index, spec in enumerate(cfg.transactions):
        labels = {"type": spec.name}
        metrics.counter("sut.completions", labels).inc(
            len(result.completion_times[type_index])
        )
        metrics.counter("sut.rejected", labels).inc(result.rejected[type_index])
        response_hist = metrics.histogram("sut.response_s", labels)
        for response_s in result.response_times[type_index]:
            response_hist.observe(response_s)

    tracer = obs.tracer
    steady_start, steady_end = result.steady_window()
    tracer.record("warmup", "run", start_s=0.0, duration_s=steady_start)
    tracer.record(
        "steady", "run", start_s=steady_start, duration_s=steady_end - steady_start
    )
    tracer.record(
        "rampdown",
        "run",
        start_s=steady_end,
        duration_s=cfg.duration_s - steady_end,
    )
    tracer.record(
        "sut.run",
        "run",
        start_s=0.0,
        duration_s=wall_s,
        clock=WALL,
        labels={"duration_s": cfg.duration_s, "seed": result.config.seed},
    )
