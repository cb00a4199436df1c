"""Resilience study: behavior under injected faults (Section 7 scope).

The paper's future-work section deploys the workload across "a cluster
of interconnected blades" — and the moment the SUT spans components
that can fail, availability and behavior-under-degradation become
workload characteristics alongside throughput and response time.  This
experiment injects each fault type from
:mod:`repro.workload.faults` into the single-server SUT and measures
the resilience metrics:

* a **DB slowdown** (lock contention + buffer-pool spill) degrades
  goodput while active, and goodput recovers after the fault clears —
  the time-to-recover is the queue-drain transient;
* a **transient tier crash** loses every in-flight and arriving
  operation; client retry-with-backoff turns most of those hard
  failures into delayed successes, so goodput and availability are
  strictly better with retries than without;
* **disk degradation** and **GC pressure** each depress goodput in
  proportion to the saturated resource;
* under sustained **overload**, admission-control brownout (shedding
  low-priority manufacturing work) preserves more high-priority web
  goodput than the stock hard-rejection server.

Every run is deterministic in the config seed; fault times are placed
relative to the steady-state window so the experiment scales from
quick to bench configs unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import (
    DegradationPolicy,
    ExperimentConfig,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.experiments.common import Row, bench_config, header, simulate
from repro.workload.metrics import (
    ResilienceReport,
    evaluate_resilience,
    goodput_series,
    time_to_recover,
)
from repro.workload.sut import RunResult

#: Retry policy used by the crash-with-retries scenario.  Timeouts are
#: generous so the dominant client signal is the instant
#: connection-refused during the outage, not queue-drain timeouts.
#: The backoff ladder (1, 3, 9, 15, 15 s nominal) must sum past the
#: ~20 s outage even on the low side of the jitter, so an operation
#: refused at the moment of the crash still has an attempt left once
#: the tier restarts.
RETRY = RetryPolicy(
    enabled=True,
    timeout_web_s=30.0,
    timeout_rmi_s=30.0,
    max_attempts=6,
    backoff_base_s=1.0,
    backoff_factor=3.0,
    backoff_cap_s=15.0,
    jitter=0.5,
    retry_budget=0.5,
)

BROWNOUT = DegradationPolicy(
    enabled=True,
    brownout_threshold=0.25,
    sustain_ticks=5,
    max_shed_fraction=0.95,
    shed_priority_below=1,
)

#: Overload factor for the brownout comparison.
OVERLOAD = 1.35


@dataclass
class Scenario:
    """One run of the study."""

    name: str
    result: RunResult
    report: ResilienceReport
    #: (start, end) of the injected fault, if any.
    fault_span: Optional[Tuple[float, float]] = None
    recover_s: Optional[float] = None


def _goodput_between(result: RunResult, t0: float, t1: float) -> float:
    """Successful completions per second inside [t0, t1)."""
    count = sum(
        len(result.responses_between(k, t0, t1))
        for k in range(len(result.completion_times))
    )
    return count / max(1e-9, t1 - t0)


def _web_goodput(result: RunResult) -> float:
    """Steady-state goodput of web (high-priority) operations."""
    t0, t1 = result.steady_window()
    cfg = result.config.workload
    count = sum(
        len(result.responses_between(k, t0, t1))
        for k, spec in enumerate(cfg.transactions)
        if spec.protocol == "web"
    )
    return count / max(1e-9, t1 - t0)


@dataclass
class ResilienceResult:
    config: ExperimentConfig
    scenarios: Dict[str, Scenario]

    def rows(self) -> List[Row]:
        base = self.scenarios["fault-free"]
        db = self.scenarios["db-slowdown"]
        crash = self.scenarios["crash-no-retry"]
        crash_retry = self.scenarios["crash-retry"]
        brown = self.scenarios["overload-brownout"]
        hard = self.scenarios["overload-hard"]

        f0, f1 = db.fault_span
        base_during = _goodput_between(base.result, f0, f1)
        db_during = _goodput_between(db.result, f0, f1)

        degraded = []
        for name in ("db-slowdown", "disk-degraded", "gc-pressure", "crash-no-retry"):
            s = self.scenarios[name]
            g0, g1 = s.fault_span
            if _goodput_between(s.result, g0, g1) < 0.95 * _goodput_between(
                base.result, g0, g1
            ):
                degraded.append(name)

        return [
            Row(
                "fault-free run loses nothing",
                "availability ~100%",
                f"{base.report.availability * 100:.2f}%",
                ok=base.report.availability > 0.999 and base.report.failed_ops == 0,
            ),
            Row(
                "DB slowdown degrades goodput while active",
                "goodput drops",
                f"{base_during:.1f} -> {db_during:.1f} ops/s",
                ok=db_during < 0.90 * base_during,
            ),
            Row(
                "goodput recovers after the DB fault clears",
                "finite recovery",
                f"{db.recover_s:.0f} s"
                if db.recover_s is not None
                else "never",
                ok=db.recover_s is not None,
            ),
            Row(
                "every fault type measurably degrades the run",
                "4 of 4",
                f"{len(degraded)} of 4",
                ok=len(degraded) == 4,
            ),
            Row(
                "retry+backoff beats no-retry under a crash",
                "higher goodput",
                f"{crash.report.successful_ops} -> "
                f"{crash_retry.report.successful_ops} ops "
                f"({crash.report.availability * 100:.1f}% -> "
                f"{crash_retry.report.availability * 100:.1f}%)",
                ok=crash_retry.report.successful_ops > crash.report.successful_ops
                and crash_retry.report.availability > crash.report.availability,
            ),
            Row(
                "brownout preserves high-priority goodput",
                "web goodput up",
                f"{_web_goodput(hard.result):.1f} -> "
                f"{_web_goodput(brown.result):.1f} web ops/s",
                ok=_web_goodput(brown.result) > _web_goodput(hard.result)
                and brown.report.shed_ops > 0,
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Resilience: faults, retries, graceful degradation")
        lines.append(
            f"  {'scenario':>18} {'goodput':>8} {'avail':>7} {'failed':>7} "
            f"{'t/o':>5} {'retry':>6} {'shed':>6} {'down':>6} {'recover':>8}"
        )
        for s in self.scenarios.values():
            r = s.report
            recover = f"{s.recover_s:.0f}s" if s.recover_s is not None else "-"
            lines.append(
                f"  {s.name:>18} {r.goodput:>8.1f} "
                f"{r.availability * 100:>6.1f}% {r.failed_ops:>7} "
                f"{r.timeout_ops:>5} {r.retry_attempts:>6} {r.shed_ops:>6} "
                f"{r.downtime_s:>5.0f}s {recover:>8}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _with_faults(config: ExperimentConfig, faults: FaultConfig) -> ExperimentConfig:
    return dataclasses.replace(config, faults=faults)


def _overloaded(config: ExperimentConfig) -> ExperimentConfig:
    workload = dataclasses.replace(
        config.workload,
        injection_rate=int(round(config.workload.injection_rate * OVERLOAD)),
    )
    return dataclasses.replace(config, workload=workload)


def run(config: Optional[ExperimentConfig] = None) -> ResilienceResult:
    config = config if config is not None else bench_config()
    # The study defines its own fault scenarios; a manifest that
    # already carries faults would contaminate the fault-free baseline
    # every comparison is made against.
    config = _with_faults(config, FaultConfig())
    cfg = config.workload
    t0 = cfg.ramp_up_s
    t1 = cfg.duration_s - cfg.ramp_down_s
    steady = t1 - t0

    # Fault placement, relative to the steady window so quick and
    # bench scales exercise the same shape.
    fault_start = t0 + 0.35 * steady
    fault_len = 0.12 * steady
    crash_len = min(20.0, 0.08 * steady)

    def fault(kind: str, magnitude: float, length: float) -> Tuple[FaultEvent, ...]:
        return (
            FaultEvent(
                kind=kind,
                start_s=fault_start,
                duration_s=length,
                magnitude=magnitude,
            ),
        )

    plans: Dict[str, ExperimentConfig] = {
        "fault-free": config,
        "db-slowdown": _with_faults(
            config, FaultConfig(events=fault("db_slowdown", 3.0, fault_len))
        ),
        "disk-degraded": _with_faults(
            config, FaultConfig(events=fault("disk_degraded", 120.0, fault_len))
        ),
        "gc-pressure": _with_faults(
            config, FaultConfig(events=fault("gc_pressure", 700.0, fault_len))
        ),
        "crash-no-retry": _with_faults(
            config, FaultConfig(events=fault("tier_crash", 1.0, crash_len))
        ),
        "crash-retry": _with_faults(
            config,
            FaultConfig(events=fault("tier_crash", 1.0, crash_len), retry=RETRY),
        ),
        "overload-hard": _overloaded(config),
        "overload-brownout": _with_faults(
            _overloaded(config), FaultConfig(degradation=BROWNOUT)
        ),
    }

    scenarios: Dict[str, Scenario] = {}
    for name, plan in plans.items():
        result = simulate(plan)
        events = plan.faults.events
        span = (events[0].start_s, events[0].end_s) if events else None
        recover_s = None
        if span is not None:
            # Baseline for recovery: this run's own pre-fault goodput.
            pre = _goodput_between(result, t0 + 0.1 * steady, span[0])
            recover_s = time_to_recover(result, span[1], pre)
        scenarios[name] = Scenario(
            name=name,
            result=result,
            report=evaluate_resilience(result),
            fault_span=span,
            recover_s=recover_s,
        )
    return ResilienceResult(config=config, scenarios=scenarios)
