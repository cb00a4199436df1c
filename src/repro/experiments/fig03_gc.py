"""Figure 3: garbage collection statistics.

The paper's Figure 3 plots per-collection statistics for a 60-minute
run with a 1 GB heap and prints the inset table: GCs every 25-28 s,
pauses of 300-400 ms, ~1.3% of runtime.  The accompanying text adds:
mark is >80% of the pause, no compaction occurred, under 200 MB of the
heap was reachable at the end, and used heap creeps up ~1 MB/min from
"dark matter" fragmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.experiments.common import Row, bench_config, fmt, header, simulate
from repro.tools.verbosegc import GcSummary, VerboseGcLog
from repro.workload.sut import RunResult


@dataclass
class Figure3Result:
    config: ExperimentConfig
    summary: GcSummary
    run_result: RunResult

    def rows(self) -> List[Row]:
        s = self.summary
        return [
            Row(
                "time between GCs",
                "workload.gc_mean_period_s",
                s.mean_period_s,
                f"{fmt(s.min_period_s, 1)}-{fmt(s.max_period_s, 1)} s",
            ),
            Row(
                "GC pause",
                "workload.gc_mean_pause_ms",
                s.mean_pause_ms,
                f"{fmt(s.min_pause_ms, 0)}-{fmt(s.max_pause_ms, 0)} ms",
            ),
            Row(
                "percent of runtime in GC",
                "workload.gc_cpu_share",
                s.percent_of_runtime,
                fmt(s.percent_of_runtime * 100, 2, "%"),
            ),
            Row(
                "mark share of pause",
                "workload.gc_mark_fraction",
                s.mean_mark_fraction,
                fmt(s.mean_mark_fraction * 100, 0, "%"),
            ),
            Row(
                "compactions during run",
                "workload.gc_compactions",
                s.compactions,
                str(s.compactions),
            ),
            Row(
                "dark matter growth",
                "workload.gc_dark_matter_mb_per_min",
                s.dark_matter_mb_per_min,
                fmt(s.dark_matter_mb_per_min, 2, " MB/min"),
            ),
            Row(
                "reachable heap at end",
                "workload.gc_final_live_mb",
                s.final_live_mb,
                fmt(s.final_live_mb, 0, " MB"),
            ),
        ]

    def render_lines(self, n_events: int = 10) -> List[str]:
        lines = header("Figure 3: Garbage Collection Statistics")
        log = VerboseGcLog(
            self.run_result.gc_events, self.config.workload.duration_s
        )
        lines.extend(log.render_lines(limit=n_events))
        if len(self.run_result.gc_events) > n_events:
            lines.append(f"  ... ({len(self.run_result.gc_events)} collections total)")
        lines.append("")
        lines.extend(log.summary().table_lines())
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(config: Optional[ExperimentConfig] = None) -> Figure3Result:
    config = config if config is not None else bench_config()
    result = simulate(config)
    t0, t1 = result.steady_window()
    steady_events = [e for e in result.gc_events if t0 <= e.start_time_s < t1]
    summary = VerboseGcLog(steady_events, t1 - t0).summary()
    return Figure3Result(config=config, summary=summary, run_result=result)
