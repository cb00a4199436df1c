"""Benchmark metrics: JOPS, response-time percentiles, pass/fail.

The benchmark's reported metric is "jAppServer2004 Operations per
Second" (JOPS); a run passes only if 90% of web requests complete in
under 2 seconds and 90% of RMI requests in under 5 seconds.  On a
tuned system the paper observes ~1.6 JOPS per unit of injection rate.

The resilience metrics (:func:`evaluate_resilience`) characterize a
*faulted* run the way the availability literature does: goodput
(client-visible successful completions) versus offered load, request
success rate, downtime, and — per fault — the time for goodput to
recover to its pre-fault level after the fault clears.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.stats import percentile
from repro.workload.sut import RunResult


@dataclass(frozen=True)
class BenchmarkReport:
    """Steady-state summary of one run."""

    injection_rate: int
    jops: float
    jops_per_ir: float
    p90_web_s: Optional[float]
    p90_rmi_s: Optional[float]
    passed: bool
    utilization: float
    user_fraction: float
    kernel_fraction: float
    gc_fraction: float
    gc_count: int
    mean_gc_period_s: Optional[float]
    mean_gc_pause_ms: Optional[float]
    disk_utilization: float
    io_wait_mean_queue: float
    component_shares: Dict[str, float]
    rejected_ops: int = 0

    def summary_lines(self) -> List[str]:
        """Human-readable rows (used by examples and benches)."""
        lines = [
            f"IR {self.injection_rate}: {self.jops:.1f} JOPS "
            f"({self.jops_per_ir:.2f} JOPS/IR), "
            f"CPU {self.utilization * 100:.1f}% "
            f"(user {self.user_fraction * 100:.0f}% / "
            f"kernel {self.kernel_fraction * 100:.0f}%)",
            f"  response p90: web "
            f"{self._fmt(self.p90_web_s)} s, rmi {self._fmt(self.p90_rmi_s)} s "
            f"-> {'PASS' if self.passed else 'FAIL'}",
            f"  GC: {self.gc_count} collections, "
            f"period {self._fmt(self.mean_gc_period_s)} s, "
            f"pause {self._fmt(self.mean_gc_pause_ms)} ms, "
            f"{self.gc_fraction * 100:.2f}% of runtime",
            f"  disk: {self.disk_utilization * 100:.1f}% busy, "
            f"mean queue {self.io_wait_mean_queue:.1f}",
        ]
        return lines

    @staticmethod
    def _fmt(value: Optional[float]) -> str:
        return f"{value:.2f}" if value is not None else "n/a"


def evaluate_run(result: RunResult) -> BenchmarkReport:
    """Compute the steady-state benchmark report for a run."""
    cfg = result.config.workload
    t0, t1 = result.steady_window()
    steady_s = t1 - t0
    if steady_s <= 0:
        raise ValueError("run has no steady-state window")

    # Throughput.
    total_ops = 0
    web_rts = array("d")
    rmi_rts = array("d")
    for type_index, spec in enumerate(cfg.transactions):
        rts = result.responses_between(type_index, t0, t1)
        total_ops += len(rts)
        if spec.protocol == "web":
            web_rts += rts
        else:
            rmi_rts += rts
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
# Resilience metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceReport:
    """Availability-oriented summary of one (possibly faulted) run."""

    #: Logical operations offered (first attempts, whole run).
    offered_ops: int
    #: Client-visible successful completions (whole run).
    successful_ops: int
    #: Operations that permanently failed (attempts exhausted,
    #: connection refused with no retry, shed with no retry).
    failed_ops: int
    #: Client-side timeouts observed (an op may time out repeatedly).
    timeout_ops: int
    #: Retry attempts injected by the driver.
    retry_attempts: int
    #: Arrivals shed by brownout (graceful degradation).
    shed_ops: int
    #: Completions of requests the client had already abandoned.
    zombie_completions: int
    #: Goodput over the steady window, ops/s.
    goodput: float
    #: Seconds the server was down.
    downtime_s: float
    #: Operations still open when the run ended: censored, they count
    #: neither as served nor as lost.
    open_ops: int
    #: successful / (offered - open) over the whole run.
    availability: float

    def summary_lines(self) -> List[str]:
        return [
            f"  offered {self.offered_ops} ops, "
            f"successful {self.successful_ops} "
            f"(availability {self.availability * 100:.2f}%)",
            f"  goodput {self.goodput:.1f} ops/s steady-state, "
            f"failed {self.failed_ops}, timeouts {self.timeout_ops}, "
            f"retries {self.retry_attempts}, shed {self.shed_ops}, "
            f"zombies {self.zombie_completions}",
            f"  downtime {self.downtime_s:.1f} s",
        ]


def goodput_series(
    result: RunResult, bucket_s: float = 1.0
) -> Tuple[List[float], List[float]]:
    """Client-visible successful completions per second, bucketed.

    Built from the response log (not the timeline) so abandoned
    requests that the server finished as zombies are excluded.
    """
    cfg = result.config.workload
    n_buckets = max(1, int(round(cfg.duration_s / bucket_s)))
    done = np.concatenate([np.frombuffer(t) for t in result.completion_times])
    # ``astype`` truncates toward zero, as ``int`` does.
    idx = np.minimum((done / bucket_s).astype(np.int64), n_buckets - 1)
    counts = np.bincount(idx, minlength=n_buckets)
    times = [(i + 0.5) * bucket_s for i in range(n_buckets)]
    return times, (counts / bucket_s).tolist()


def evaluate_resilience(result: RunResult) -> ResilienceReport:
    """Compute the resilience summary for a run."""
    stats = result.resilience
    if stats is None:
        raise ValueError("run carries no resilience stats")
    t0, t1 = result.steady_window()
    steady_s = max(1e-9, t1 - t0)
    successful = sum(len(times) for times in result.completion_times)
    steady_ok = sum(
        len(result.responses_between(k, t0, t1))
        for k in range(len(result.completion_times))
    )
    offered = stats.total_offered
    return ResilienceReport(
        offered_ops=offered,
        successful_ops=successful,
        failed_ops=stats.total_failed,
        timeout_ops=stats.total_timeouts,
        retry_attempts=stats.total_retries,
        shed_ops=stats.total_shed,
        zombie_completions=stats.zombie_completions,
        goodput=steady_ok / steady_s,
        downtime_s=len(stats.down_ticks) * result.config.workload.tick_s,
        open_ops=stats.open_ops,
        availability=successful / max(1, offered - stats.open_ops),
    )


def time_to_recover(
    result: RunResult,
    fault_end_s: float,
    baseline_goodput: float,
    bucket_s: float = 1.0,
    window_s: float = 5.0,
    threshold: float = 0.9,
) -> Optional[float]:
    """Seconds after ``fault_end_s`` until goodput is back to normal.

    Recovery is declared at the first post-fault instant where the
    trailing ``window_s`` moving average of goodput reaches
    ``threshold`` x ``baseline_goodput``.  Returns None if the run
    never recovers inside its measured duration.
    """
    times, values = goodput_series(result, bucket_s)
    per_window = max(1, int(round(window_s / bucket_s)))
    target = threshold * baseline_goodput
    for i, t in enumerate(times):
        if t < fault_end_s or i + 1 < per_window:
            continue
        window = values[i + 1 - per_window : i + 1]
        if sum(window) / per_window >= target:
            return t - fault_end_s
    return None
