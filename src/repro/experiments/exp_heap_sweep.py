"""Ablation: GC behavior across heap sizes.

The paper attributes its "GC is cheap" finding to a *properly sized*
heap: "We used a reasonably large heap size (1GB) ... much larger than
heap sizes used in many past studies" and contrasts with Blackburn et
al., where "the heap sizes were considerably smaller and a large
percentage of runtime was spent in GC."

This sweep runs the same workload across heap sizes and reproduces the
full curve connecting the two regimes:

* GC *frequency* falls roughly as 1/(heap - live): half the headroom,
  twice the collections;
* GC *pause* is nearly flat (mark time follows the live set, not the
  heap), with only the sweep term growing;
* GC *overhead* therefore collapses from double digits at
  barely-bigger-than-live heaps to ~1% at the paper's 1 GB;
* below a critical size the run cannot meet its deadlines at all.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ExperimentConfig
from repro.experiments.common import Row, bench_config, fmt, header, ratio, simulate
from repro.tools.verbosegc import VerboseGcLog
from repro.workload.metrics import evaluate_run

HEAP_SIZES_MB: Tuple[int, ...] = (256, 384, 512, 768, 1024, 1536)


@dataclass(frozen=True)
class HeapPoint:
    heap_mb: int
    gc_count: int
    mean_period_s: Optional[float]
    mean_pause_ms: Optional[float]
    gc_fraction: float
    passed: bool


@dataclass
class HeapSweepResult:
    config: ExperimentConfig
    points: Dict[int, HeapPoint]

    def rows(self) -> List[Row]:
        small = self.points[HEAP_SIZES_MB[0]]
        paper = self.points[1024]
        big = self.points[HEAP_SIZES_MB[-1]]
        fractions = [self.points[h].gc_fraction for h in HEAP_SIZES_MB]
        pauses = [
            self.points[h].mean_pause_ms
            for h in HEAP_SIZES_MB
            if self.points[h].mean_pause_ms is not None
        ]
        return [
            Row(
                "GC overhead falls monotonically with heap",
                "heap_sweep.max_gc_rise",
                max(b - a for a, b in zip(fractions, fractions[1:])),
                " -> ".join(f"{f * 100:.1f}%" for f in fractions),
            ),
            Row(
                "small heaps live in the Blackburn regime",
                "heap_sweep.small_heap_gc_ratio",
                ratio(small.gc_fraction, paper.gc_fraction),
                fmt(small.gc_fraction * 100, 1, "%"),
            ),
            Row(
                "the paper's 1 GB heap is in the cheap regime",
                "heap_sweep.paper_heap_gc_share",
                paper.gc_fraction,
                fmt(paper.gc_fraction * 100, 2, "%"),
            ),
            Row(
                "pause tracks the live set, not the heap",
                "heap_sweep.pause_spread",
                ratio(max(pauses), min(pauses)),
                f"{min(pauses):.0f}-{max(pauses):.0f} ms",
            ),
            Row(
                "diminishing returns past the paper's size",
                "heap_sweep.gain_past_paper_heap",
                paper.gc_fraction - big.gc_fraction,
                f"{paper.gc_fraction * 100:.2f}% -> {big.gc_fraction * 100:.2f}%",
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Ablation: GC Behavior vs Heap Size")
        lines.append(
            f"  {'heap(MB)':>9} {'GCs':>5} {'period(s)':>10} "
            f"{'pause(ms)':>10} {'GC%':>7} {'pass':>5}"
        )
        for heap_mb in HEAP_SIZES_MB:
            p = self.points[heap_mb]
            period = f"{p.mean_period_s:.1f}" if p.mean_period_s else "n/a"
            pause = f"{p.mean_pause_ms:.0f}" if p.mean_pause_ms else "n/a"
            lines.append(
                f"  {heap_mb:>9} {p.gc_count:>5} {period:>10} {pause:>10} "
                f"{p.gc_fraction * 100:>6.2f}% {'yes' if p.passed else 'NO':>5}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(config: Optional[ExperimentConfig] = None) -> HeapSweepResult:
    config = config if config is not None else bench_config()
    points: Dict[int, HeapPoint] = {}
    for heap_mb in HEAP_SIZES_MB:
        cfg = dataclasses.replace(
            config, jvm=dataclasses.replace(config.jvm, heap_mb=heap_mb)
        )
        result = simulate(cfg)
        report = evaluate_run(result)
        t0, t1 = result.steady_window()
        steady = [e for e in result.gc_events if t0 <= e.start_time_s < t1]
        summary = VerboseGcLog(steady, t1 - t0).summary()
        points[heap_mb] = HeapPoint(
            heap_mb=heap_mb,
            gc_count=summary.collections,
            mean_period_s=summary.mean_period_s,
            mean_pause_ms=summary.mean_pause_ms,
            gc_fraction=summary.percent_of_runtime,
            passed=report.passed,
        )
    return HeapSweepResult(config=config, points=points)
