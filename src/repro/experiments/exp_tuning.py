"""Section 3.3's methodology: tune the system, remove spurious
bottlenecks.

"We first tuned the system and removed 'spurious' bottlenecks ...
Tuning WebSphere, DB2, and filesystem parameters helped us get a
better understanding of the high-level bottlenecks ...  When tuning,
we strived for a higher throughput, lower GC time, and lower idle and
I/O times."

This experiment walks the tuning path an engineer would take, starting
from a misconfigured deployment and fixing one bottleneck per step:

1. ``untuned``     — 256 MB heap, cold 45% buffer pool, 12 worker
                     threads, 2 hard disks: fails everything;
2. ``+heap``       — 1 GB heap: GC overhead collapses;
3. ``+bufferpool`` — tuned DB2 buffer pool: physical I/O shrinks;
4. ``+threads``    — a properly sized thread pool: queueing drains;
5. ``+ramdisk``    — database on the RAM disk: I/O wait disappears and
                     the run finally passes at full utilization.

Each step must improve (or hold) throughput and reduce the bottleneck
it targets — which is asserted, making this a regression test for the
whole workload model's causal structure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DiskConfig, ExperimentConfig
from repro.experiments.common import Row, bench_config, fmt, header, ratio, simulate
from repro.tools.vmstat import VmstatReport
from repro.workload.metrics import BenchmarkReport, evaluate_run
from repro.workload.sut import RunResult


@dataclass(frozen=True)
class TuningStep:
    name: str
    description: str
    report: BenchmarkReport
    iowait_pct: float


def _untuned(config: ExperimentConfig) -> ExperimentConfig:
    return dataclasses.replace(
        config,
        jvm=dataclasses.replace(config.jvm, heap_mb=256, live_set_mb=150.0),
        workload=dataclasses.replace(
            config.workload,
            buffer_pool_hit=0.45,
            thread_pool=12,
            disk=DiskConfig.hard_disks(2),
        ),
    )


def _steps(config: ExperimentConfig) -> List[Tuple[str, str, ExperimentConfig]]:
    untuned = _untuned(config)
    with_heap = dataclasses.replace(
        untuned,
        jvm=dataclasses.replace(
            untuned.jvm, heap_mb=config.jvm.heap_mb, live_set_mb=config.jvm.live_set_mb
        ),
    )
    with_pool = dataclasses.replace(
        with_heap,
        workload=dataclasses.replace(
            with_heap.workload, buffer_pool_hit=config.workload.buffer_pool_hit
        ),
    )
    with_threads = dataclasses.replace(
        with_pool,
        workload=dataclasses.replace(
            with_pool.workload, thread_pool=config.workload.thread_pool
        ),
    )
    tuned = dataclasses.replace(
        with_threads,
        workload=dataclasses.replace(
            with_threads.workload, disk=DiskConfig.ram_disk()
        ),
    )
    return [
        ("untuned", "256 MB heap, 45% buffer pool, 12 threads, 2 disks", untuned),
        ("+heap", "grow the Java heap to 1 GB", with_heap),
        ("+bufferpool", "tune the DB2 buffer pool", with_pool),
        ("+threads", "size the WebSphere thread pool", with_threads),
        ("+ramdisk", "move the database to the RAM disk", tuned),
    ]


@dataclass
class TuningResult:
    config: ExperimentConfig
    steps: Dict[str, TuningStep]

    def rows(self) -> List[Row]:
        s = self.steps
        untuned = s["untuned"].report
        heap = s["+heap"].report
        tuned = s["+ramdisk"].report
        jops = [step.report.jops for step in self.steps.values()]
        return [
            Row(
                "untuned system fails",
                "tuning.untuned_passes",
                untuned.passed,
                "fail" if not untuned.passed else "PASSES",
            ),
            Row(
                "bigger heap slashes GC overhead",
                "tuning.heap_gc_ratio",
                ratio(heap.gc_fraction, untuned.gc_fraction),
                f"{untuned.gc_fraction * 100:.1f}% -> {heap.gc_fraction * 100:.1f}%",
            ),
            Row(
                "buffer pool tuning cuts physical I/O",
                "tuning.bufferpool_disk_ratio",
                ratio(s["+bufferpool"].report.disk_utilization, heap.disk_utilization),
                f"{heap.disk_utilization * 100:.0f}% -> "
                f"{s['+bufferpool'].report.disk_utilization * 100:.0f}%",
            ),
            Row(
                "tuned system passes at high utilization",
                "tuning.tuned_utilization",
                tuned.utilization,
                f"{'pass' if tuned.passed else 'FAIL'}, "
                f"{tuned.utilization * 100:.0f}%",
            ),
            Row(
                "RAM disk removes the I/O wait",
                "tuning.ramdisk_iowait_pct",
                s["+ramdisk"].iowait_pct,
                fmt(s["+ramdisk"].iowait_pct, 1, "%"),
            ),
            Row(
                "throughput never regresses along the walk",
                "tuning.max_jops_drop",
                max(a - b for a, b in zip(jops, jops[1:])),
                " -> ".join(f"{j:.0f}" for j in jops),
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 3.3: The Tuning Walk")
        lines.append(
            f"  {'step':>12} {'JOPS':>7} {'CPU%':>6} {'GC%':>6} "
            f"{'disk%':>6} {'iowait%':>8} {'p90 web':>8} {'verdict':>8}"
        )
        for step in self.steps.values():
            r = step.report
            p90 = r.p90_web_s if r.p90_web_s is not None else float("nan")
            lines.append(
                f"  {step.name:>12} {r.jops:>7.1f} {r.utilization * 100:>6.1f} "
                f"{r.gc_fraction * 100:>6.2f} {r.disk_utilization * 100:>6.1f} "
                f"{step.iowait_pct:>8.2f} {p90:>8.2f} "
                f"{'PASS' if r.passed else 'FAIL':>8}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _run_step(config: ExperimentConfig) -> Tuple[BenchmarkReport, float]:
    result: RunResult = simulate(config)
    report = evaluate_run(result)
    iowait = VmstatReport(result, interval_s=5.0).mean_iowait_pct()
    return report, iowait


def run(config: Optional[ExperimentConfig] = None) -> TuningResult:
    config = config if config is not None else bench_config()
    steps: Dict[str, TuningStep] = {}
    for name, description, cfg in _steps(config):
        report, iowait = _run_step(cfg)
        steps[name] = TuningStep(
            name=name, description=description, report=report, iowait_pct=iowait
        )
    return TuningResult(config=config, steps=steps)
