"""Figure 2: benchmark throughput over a run.

The paper's Figure 2 plots the transaction rate of each of the four
request types during a 60-minute run and observes that every series
"stabilizes relatively quickly, and remains fairly constant throughout
execution" — the property that makes steady-state HPM sampling valid.

Reproduced here as: the per-type ops/s series, the detected
stabilization time (paper: under 5 minutes), the coefficient of
variation of each steady series (paper: "fairly constant"), and the
JOPS/IR ratio (paper: ~1.6 on a tuned system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.steady_state import coefficient_of_variation, detect_steady_start
from repro.experiments.common import Row, bench_config, fmt, header, simulate
from repro.util.timeline import SampleSeries, TimeGrid
from repro.workload.metrics import evaluate_run


@dataclass
class Figure2Result:
    config: ExperimentConfig
    times: List[float]
    series: Dict[str, List[float]]
    stabilization_s: Optional[float]
    cov_by_type: Dict[str, float]
    jops_per_ir: float
    total_jops: float

    def rows(self) -> List[Row]:
        worst_cov = max(self.cov_by_type.values())
        stab = self.stabilization_s
        return [
            Row(
                "throughput stabilizes within",
                "workload.stabilization_s",
                stab if stab is not None else 0.0,
                fmt(stab, 0, " s") if stab is not None else "immediately",
            ),
            Row(
                "steady-state variability (worst CoV)",
                "workload.steady_cov",
                worst_cov,
                fmt(worst_cov, 3),
            ),
            Row(
                "JOPS per unit of IR",
                "workload.jops_per_ir",
                self.jops_per_ir,
                fmt(self.jops_per_ir, 2),
            ),
        ]

    def render_lines(self, n_points: int = 12) -> List[str]:
        lines = header("Figure 2: Benchmark Throughput (ops/s by type)")
        names = list(self.series)
        lines.append("  time(s) " + "".join(f"{n:>12s}" for n in names))
        step = max(1, len(self.times) // n_points)
        for i in range(0, len(self.times), step):
            row = f"  {self.times[i]:7.0f} " + "".join(
                f"{self.series[n][i]:12.1f}" for n in names
            )
            lines.append(row)
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(config: Optional[ExperimentConfig] = None, bucket_s: float = 10.0) -> Figure2Result:
    config = config if config is not None else bench_config()
    result = simulate(config)
    times, raw_series = result.timeline.throughput_series(bucket_s=bucket_s)
    names = result.timeline.tx_names

    t0, t1 = result.steady_window()
    stabilization = None
    covs: Dict[str, float] = {}
    for k, name in enumerate(names):
        grid = TimeGrid(start=times[0] - bucket_s / 2.0, interval=bucket_s, count=len(times))
        series = SampleSeries(name=name, grid=grid, values=list(raw_series[k]))
        start = detect_steady_start(series, window=5, tolerance=0.25)
        if start is not None:
            stabilization = max(stabilization or 0.0, start)
        covs[name] = coefficient_of_variation(series.window(t0, t1))

    report = evaluate_run(result)
    return Figure2Result(
        config=config,
        times=times,
        series={name: raw_series[k] for k, name in enumerate(names)},
        stabilization_s=stabilization,
        cov_by_type=covs,
        jops_per_ir=report.jops_per_ir,
        total_jops=report.jops,
    )
