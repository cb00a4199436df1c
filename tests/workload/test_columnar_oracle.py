"""The columnar run readers against their record-based predecessors.

:class:`~repro.workload.timeline.RunTimeline` and
:class:`~repro.workload.sut.RunResult` store a run as typed columns.
The readers below are verbatim copies of the implementations that
walked the per-tick ``TickRecord`` list and the per-type
``(completion time, response seconds)`` lists; they run over the
``records``/``responses`` views.  ``evaluate_run``'s predecessor also
sorts every steady response time for its percentiles, where
``evaluate_run`` selects them.  Every columnar reader must return the
same values, floats compared with ``==``: each reduction keeps the form
and order of its predecessor (``sum()`` stays ``sum()``, a ``+=`` loop
stays an uncompensated left-to-right running sum), which matters
because Python 3.12's ``sum()`` of floats is compensated and an
accumulation loop is not.
"""

from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tools.vmstat import VmstatReport, VmstatRow
from repro.util.units import MB
from repro.workload.metrics import BenchmarkReport, evaluate_run, goodput_series
from repro.workload.sut import RunResult
from repro.workload.timeline import COMPONENTS, RunTimeline, TickRecord
from tests.util.test_stats import sorted_percentile as percentile
from tests.workload.test_sut_golden import CASES, golden_run

INF = float("inf")


# ---------------------------------------------------------------------------
# The record-based readers, copied verbatim
# ---------------------------------------------------------------------------


class RecordTimeline:
    """The ``RunTimeline`` aggregations over a ``TickRecord`` list."""

    def __init__(self, timeline: RunTimeline):
        self.tick_s = timeline.tick_s
        self.tx_names = timeline.tx_names
        self.n_cores = timeline.n_cores
        self.records: List[TickRecord] = timeline.records

    @property
    def duration_s(self) -> float:
        return len(self.records) * self.tick_s

    @property
    def capacity_ms_per_tick(self) -> float:
        return self.n_cores * self.tick_s * 1000.0

    def _slice(self, t_from: float, t_to: float) -> List[TickRecord]:
        i0 = max(0, int(t_from / self.tick_s))
        i1 = min(len(self.records), int(t_to / self.tick_s))
        return self.records[i0:i1]

    def throughput_series(
        self, bucket_s: float = 1.0, t_from: float = 0.0, t_to: float = float("inf")
    ) -> Tuple[List[float], List[List[float]]]:
        records = self._slice(t_from, min(t_to, self.duration_s))
        per_bucket = max(1, int(round(bucket_s / self.tick_s)))
        times: List[float] = []
        series: List[List[float]] = [[] for _ in self.tx_names]
        for start in range(0, len(records) - per_bucket + 1, per_bucket):
            chunk = records[start : start + per_bucket]
            times.append(chunk[0].index * self.tick_s + bucket_s / 2.0)
            span = per_bucket * self.tick_s
            for k in range(len(self.tx_names)):
                total = sum(r.completions[k] for r in chunk)
                series[k].append(total / span)
        return times, series

    def mean_utilization(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        records = self._slice(t_from, min(t_to, self.duration_s))
        if not records:
            raise ValueError("empty window")
        busy = sum(r.busy_ms for r in records)
        return busy / (self.capacity_ms_per_tick * len(records))

    def component_shares(
        self, t_from: float = 0.0, t_to: float = float("inf")
    ) -> dict:
        records = self._slice(t_from, min(t_to, self.duration_s))
        if not records:
            raise ValueError("empty window")
        totals = {name: 0.0 for name in COMPONENTS}
        gc_total = 0.0
        for r in records:
            for name, ms in zip(COMPONENTS, r.cpu_ms_by_component):
                totals[name] += ms
            gc_total += r.gc_ms
        busy = sum(totals.values()) + gc_total
        if busy <= 0:
            raise ValueError("no busy time in window")
        shares = {name: ms / busy for name, ms in totals.items()}
        shares["gc"] = gc_total / busy
        return shares

    def heap_series(self, bucket_s: float = 1.0) -> Tuple[List[float], List[float]]:
        per_bucket = max(1, int(round(bucket_s / self.tick_s)))
        times: List[float] = []
        values: List[float] = []
        for start in range(0, len(self.records), per_bucket):
            r = self.records[start]
            times.append(r.index * self.tick_s)
            values.append(float(r.heap_used_bytes))
        return times, values


def vmstat_build(self) -> List[VmstatRow]:
    """``VmstatReport._build``; ``self.result.timeline`` is a
    :class:`RecordTimeline`."""
    timeline = self.result.timeline
    per_row = max(1, int(round(self.interval_s / timeline.tick_s)))
    kernel_index = COMPONENTS.index("kernel")
    capacity = timeline.capacity_ms_per_tick
    rows: List[VmstatRow] = []
    records = timeline.records
    for start in range(0, len(records) - per_row + 1, per_row):
        chunk = records[start : start + per_row]
        cap = capacity * len(chunk)
        kernel = sum(r.cpu_ms_by_component[kernel_index] for r in chunk)
        busy = sum(r.busy_ms for r in chunk)
        user = busy - kernel
        idle = sum(r.idle_ms for r in chunk)
        iowait = sum(r.idle_ms for r in chunk if r.io_waiting > 0)
        idle -= iowait
        rows.append(
            VmstatRow(
                time_s=chunk[0].index * timeline.tick_s,
                user_pct=100.0 * user / cap,
                system_pct=100.0 * kernel / cap,
                idle_pct=100.0 * max(0.0, idle) / cap,
                iowait_pct=100.0 * iowait / cap,
                run_queue=sum(r.queue_length for r in chunk) / len(chunk),
                io_queue=sum(r.io_waiting for r in chunk) / len(chunk),
                heap_used_mb=chunk[-1].heap_used_bytes / MB,
            )
        )
    return rows


def steady_responses(self, type_index: int) -> List[float]:
    """``RunResult.steady_responses``; ``self.responses`` is the list view."""
    t0, t1 = self.steady_window()
    return [rt for t, rt in self.responses[type_index] if t0 <= t < t1]


def goodput_series_reference(
    result, bucket_s: float = 1.0
) -> Tuple[List[float], List[float]]:
    """``repro.workload.metrics.goodput_series``."""
    cfg = result.config.workload
    n_buckets = max(1, int(round(cfg.duration_s / bucket_s)))
    counts = [0] * n_buckets
    for per_type in result.responses:
        for t, _ in per_type:
            idx = min(n_buckets - 1, int(t / bucket_s))
            counts[idx] += 1
    times = [(i + 0.5) * bucket_s for i in range(n_buckets)]
    return times, [c / bucket_s for c in counts]


def evaluate_run_reference(result) -> BenchmarkReport:
    """``repro.workload.metrics.evaluate_run``; ``result`` is the twin,
    and ``percentile`` sorts the whole sample."""
    cfg = result.config.workload
    t0, t1 = result.steady_window()
    steady_s = t1 - t0
    if steady_s <= 0:
        raise ValueError("run has no steady-state window")

    # Throughput.
    total_ops = 0
    web_rts: List[float] = []
    rmi_rts: List[float] = []
    for type_index, spec in enumerate(cfg.transactions):
        rts = result.steady_responses(type_index)
        total_ops += len(rts)
        if spec.protocol == "web":
            web_rts.extend(rts)
        else:
            rmi_rts.extend(rts)
    jops = total_ops / steady_s

    req = cfg.requirements
    p90_web = percentile(web_rts, req.quantile) if web_rts else None
    p90_rmi = percentile(rmi_rts, req.quantile) if rmi_rts else None
    rejected_total = sum(result.rejected)
    # Rejected operations are unbounded-response-time failures: a run
    # that sheds more than a sliver of its load cannot pass.
    reject_ok = rejected_total <= 0.005 * max(1, total_ops)
    passed = bool(
        (p90_web is None or p90_web <= req.web_deadline_s)
        and (p90_rmi is None or p90_rmi <= req.rmi_deadline_s)
        and total_ops > 0
        and reject_ok
    )

    # CPU accounting.
    utilization = result.timeline.mean_utilization(t0, t1)
    shares = result.timeline.component_shares(t0, t1)
    kernel_fraction = shares.get("kernel", 0.0)
    user_fraction = 1.0 - kernel_fraction

    # GC accounting over the steady window.
    steady_gcs = [e for e in result.gc_events if t0 <= e.start_time_s < t1]
    gc_count = len(steady_gcs)
    mean_period = None
    if gc_count >= 2:
        gaps = [
            b.start_time_s - a.start_time_s
            for a, b in zip(steady_gcs, steady_gcs[1:])
        ]
        mean_period = sum(gaps) / len(gaps)
    mean_pause = (
        sum(e.pause_ms for e in steady_gcs) / gc_count if gc_count else None
    )
    gc_fraction = sum(e.pause_ms for e in steady_gcs) / 1000.0 / steady_s

    return BenchmarkReport(
        injection_rate=cfg.injection_rate,
        jops=jops,
        jops_per_ir=jops / cfg.injection_rate,
        p90_web_s=p90_web,
        p90_rmi_s=p90_rmi,
        passed=passed,
        utilization=utilization,
        user_fraction=user_fraction,
        kernel_fraction=kernel_fraction,
        gc_fraction=gc_fraction,
        gc_count=gc_count,
        mean_gc_period_s=mean_period,
        mean_gc_pause_ms=mean_pause,
        disk_utilization=result.disk_utilization,
        io_wait_mean_queue=result.disk_mean_queue,
        component_shares=shares,
        rejected_ops=rejected_total,
    )


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


class Oracle:
    """A run plus its record-based twin (views built once)."""

    def __init__(self, result: RunResult):
        self.result = result
        self.timeline = RecordTimeline(result.timeline)
        self.twin = SimpleNamespace(
            config=result.config,
            timeline=self.timeline,
            responses=result.responses,
            steady_window=result.steady_window,
            rejected=result.rejected,
            gc_events=result.gc_events,
            disk_utilization=result.disk_utilization,
            disk_mean_queue=result.disk_mean_queue,
        )
        self.twin.steady_responses = functools.partial(steady_responses, self.twin)


def outcome(fn, *args):
    """A call's value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


RUNS = ("quick_run",) + tuple(sorted(CASES))


@pytest.fixture(scope="module")
def oracles(quick_run):
    runs = {"quick_run": quick_run}
    runs.update((case, golden_run(case)) for case in CASES)
    return {name: Oracle(result) for name, result in runs.items()}


def check_window(oracle: Oracle, t_from: float, t_to: float, bucket_s: float) -> None:
    new, old = oracle.result.timeline, oracle.timeline
    assert outcome(new.throughput_series, bucket_s, t_from, t_to) == outcome(
        old.throughput_series, bucket_s, t_from, t_to
    )
    assert outcome(new.mean_utilization, t_from, t_to) == outcome(
        old.mean_utilization, t_from, t_to
    )
    assert outcome(new.component_shares, t_from, t_to) == outcome(
        old.component_shares, t_from, t_to
    )
    for k, per_type in enumerate(oracle.twin.responses):
        assert oracle.result.responses_between(k, t_from, t_to).tolist() == [
            rt for t, rt in per_type if t_from <= t < t_to
        ]


def check_buckets(oracle: Oracle, bucket_s: float) -> None:
    result, twin = oracle.result, oracle.twin
    assert result.timeline.heap_series(bucket_s) == oracle.timeline.heap_series(bucket_s)
    assert VmstatReport(result, bucket_s).rows == vmstat_build(
        SimpleNamespace(result=twin, interval_s=bucket_s)
    )
    assert goodput_series(result, bucket_s) == goodput_series_reference(twin, bucket_s)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", RUNS)
def test_whole_run_and_steady_window(oracles, name):
    oracle = oracles[name]
    result = oracle.result
    t0, t1 = result.steady_window()
    for t_from, t_to in ((0.0, INF), (t0, t1)):
        check_window(oracle, t_from, t_to, 1.0)
    for bucket_s in (1.0, 5.0):
        check_buckets(oracle, bucket_s)
    for k in range(len(result.completion_times)):
        assert result.steady_responses(k) == steady_responses(oracle.twin, k)


@pytest.mark.parametrize("name", RUNS)
def test_benchmark_report(oracles, name):
    oracle = oracles[name]
    new = evaluate_run(oracle.result)
    old = evaluate_run_reference(oracle.twin)
    for field in dataclasses.fields(BenchmarkReport):
        assert getattr(new, field.name) == getattr(old, field.name), field.name
    for p90 in (new.p90_web_s, new.p90_rmi_s):
        assert p90 is None or type(p90) is float


def test_component_shares_of_negative_zero_columns():
    """Columns of ``-0.0`` total the loop's ``0.0``, not ``-0.0``."""
    timeline = RunTimeline(0.1, ("only",), 1)
    cpu_ms = [-0.0, 1.0, 2.0, 3.0, 4.0]
    for _ in range(3):
        timeline.record_tick([0], [0], cpu_ms, [0.0], -0.0, 0.0, 0, 0, 0)
    new = timeline.component_shares()
    old = RecordTimeline(timeline).component_shares()
    assert list(map(repr, new.values())) == list(map(repr, old.values()))


#: Component and GC values whose float sums depend on the summation:
#: Python 3.12's ``sum()`` is compensated (``sum([1e16, 1.0, -1e16, 0.0,
#: 0.0])`` is ``1.0`` there and ``0.0`` on 3.11), a left-to-right loop or
#: numpy's pairwise sum is not.  The second tick's busy ms, the first
#: vmstat row of three ticks and the whole run's total all come out
#: different on 3.12 if a reader drops ``sum()``, or folds ``+ gc`` into
#: it.
CANCELLING_TICKS = (
    ([1e16, 0.0, 0.0, 0.0, 0.0], 0.0),
    ([1e16, 1.0, -1e16, 0.0, 0.0], 0.0),
    ([-1e16, 0.0, 0.0, 0.0, 0.0], 0.0),
    ([1e16, 1.0, 0.0, 0.0, 0.0], -1e16),
    ([0.5, 0.25, 0.125, 3.0, 2.0], 0.03125),
    ([1.0, 2.0, 3.0, 4.0, 5.0], 6.0),
)


def test_busy_sums_keep_their_form_on_cancelling_values():
    """``busy_ms``, ``mean_utilization`` and the vmstat rows equal the
    per-tick ``sum(components) + gc`` oracle on values where the form of
    each sum decides the float.  On 3.11 any left-to-right rewrite
    passes; on 3.12 only ``sum()`` does."""
    timeline = RunTimeline(1.0, ("only",), 1)
    for cpu_ms, gc_ms in CANCELLING_TICKS:
        timeline.record_tick([0], [0], cpu_ms, [0.0], gc_ms, 0.0, 0, 0, 0)
    busy = [sum(cpu_ms) + gc_ms for cpu_ms, gc_ms in CANCELLING_TICKS]
    assert timeline.busy_ms(0, len(timeline)) == busy
    assert timeline.busy_ms(1, 4) == busy[1:4]
    capacity = timeline.capacity_ms_per_tick
    assert timeline.mean_utilization() == sum(busy) / (capacity * len(busy))
    assert timeline.mean_utilization(3.0) == sum(busy[3:]) / (capacity * 3)

    rows = VmstatReport(SimpleNamespace(timeline=timeline), 3.0).rows
    twin = SimpleNamespace(timeline=RecordTimeline(timeline))
    assert rows == vmstat_build(SimpleNamespace(result=twin, interval_s=3.0))
    kernel = COMPONENTS.index("kernel")
    for row, start in zip(rows, (0, 3)):
        user = sum(busy[start : start + 3]) - sum(
            cpu_ms[kernel] for cpu_ms, _ in CANCELLING_TICKS[start : start + 3]
        )
        assert row.user_pct == 100.0 * user / (capacity * 3)


@pytest.mark.parametrize("name", RUNS)
def test_completion_times_never_decrease(oracles, name):
    for times in oracles[name].result.completion_times:
        assert all(a <= b for a, b in zip(times, times[1:]))


WINDOW_EDGES = st.one_of(
    st.floats(-20.0, 420.0, allow_nan=False),
    st.sampled_from([0.0, 30.0, 60.0, 100.0, 119.95, 120.0, 270.0, 300.0, INF]),
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(RUNS),
    t_from=WINDOW_EDGES,
    t_to=WINDOW_EDGES,
    bucket_s=st.floats(0.05, 40.0, allow_nan=False),
)
@example(name="quick_run", t_from=30.0, t_to=270.0, bucket_s=0.37)  # inside
@example(name="fault-free", t_from=100.0, t_to=400.0, bucket_s=2.5)  # past the end
@example(name="crash-retry", t_from=90.0, t_to=20.0, bucket_s=1.0)  # reversed
@example(name="gc-pressure", t_from=60.0, t_to=60.0, bucket_s=0.1)  # empty
@example(name="disk-degraded", t_from=150.0, t_to=INF, bucket_s=7.3)  # beyond the run
# Ends before 0: as a list slice, the window's end tick counts from
# the end of the run.
@example(name="quick_run", t_from=0.0, t_to=-1.0, bucket_s=1.0)
def test_random_windows_and_buckets(oracles, name, t_from, t_to, bucket_s):
    oracle = oracles[name]
    check_window(oracle, t_from, t_to, bucket_s)
    check_buckets(oracle, bucket_s)
