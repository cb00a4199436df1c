"""Section 5 / conclusions: jas2004 vs the simple-benchmark baselines.

The paper repeatedly contrasts jas2004 against the small Java
benchmarks earlier studies used (SPECjvm98, SPECjbb2000):

* small benchmarks spend >90% of their time in JVM + JITed code;
  jas2004 spends only ~a quarter of CPU in JITed code;
* small benchmarks have hot methods (the 90/10 rule applies);
  jas2004's profile is flat;
* with the small heaps of past studies, GC takes a large share of
  runtime (Blackburn et al.); on jas2004's tuned 1 GB heap it is <2%.

This experiment runs the jbb2000-like and jvm98-like presets alongside
jas2004 and prints the contrast table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.profile_analysis import ProfileAnalysis, analyze_profile
from repro.experiments.common import Row, bench_config, fmt, header, simulate
from repro.jvm.methods import flat_profile_weights
from repro.tools.verbosegc import VerboseGcLog
from repro.util.rng import RngFactory
from repro.workload.metrics import evaluate_run
from repro.workload.presets import jbb2000_like, jvm98_like


@dataclass(frozen=True)
class WorkloadContrast:
    """Measured characteristics of one workload."""

    name: str
    gc_percent: float
    jited_share: float
    heap_mb: int
    profile: ProfileAnalysis

    @property
    def hot_spots(self) -> bool:
        return not self.profile.is_flat


@dataclass
class BaselinesResult:
    contrasts: Dict[str, WorkloadContrast]

    def rows(self) -> List[Row]:
        jas = self.contrasts["jas2004"]
        jbb = self.contrasts["jbb2000"]
        jvm98 = self.contrasts["jvm98"]
        return [
            Row(
                "jas2004 profile",
                "flat, no hot spots",
                "flat" if jas.profile.is_flat else "CONCENTRATED",
                ok=jas.profile.is_flat,
            ),
            Row(
                "simple benchmarks' profiles",
                "hot spots (90/10)",
                f"jbb hottest {fmt(jbb.profile.hottest_share * 100, 0, '%')}, "
                f"jvm98 hottest {fmt(jvm98.profile.hottest_share * 100, 0, '%')}",
                ok=jbb.hot_spots and jvm98.hot_spots,
            ),
            Row(
                "jas2004 GC share (1 GB heap)",
                "<2%",
                fmt(jas.gc_percent * 100, 2, "%"),
                ok=jas.gc_percent < 0.02,
            ),
            Row(
                "small-heap benchmarks' GC share",
                "much larger",
                f"jbb {fmt(jbb.gc_percent * 100, 1, '%')}, "
                f"jvm98 {fmt(jvm98.gc_percent * 100, 1, '%')}",
                ok=jbb.gc_percent > jas.gc_percent * 2
                and jvm98.gc_percent > jas.gc_percent * 2,
            ),
            Row(
                "simple benchmarks stress JVM+JITed code",
                ">90% of time",
                f"jbb {fmt(jbb.jited_share * 100, 0, '%')} vs "
                f"jas2004 {fmt(jas.jited_share * 100, 0, '%')}",
                ok=jbb.jited_share > 0.85 and jas.jited_share < 0.5,
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 5: jas2004 vs Simple Java Benchmarks")
        lines.append(
            "  workload   heap(MB)  GC%      JIT+JVM share  hottest  methods@50%"
        )
        for name, c in self.contrasts.items():
            lines.append(
                f"  {name:9s} {c.heap_mb:8d} {c.gc_percent * 100:7.2f}% "
                f"{c.jited_share * 100:13.0f}% "
                f"{c.profile.hottest_share * 100:7.1f}% {c.profile.items_for_half:9d}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _contrast(name: str, config: ExperimentConfig) -> WorkloadContrast:
    result = simulate(config)
    report = evaluate_run(result)
    t0, t1 = result.steady_window()
    steady = [e for e in result.gc_events if t0 <= e.start_time_s < t1]
    gc_summary = VerboseGcLog(steady, t1 - t0).summary()
    # The method weights a MethodRegistry would hold: it draws them
    # first from this stream and gives unit ``i`` ``weights[i]``.
    weights = flat_profile_weights(
        config.jvm.n_jited_methods,
        config.jvm.warm_methods,
        config.jvm.warm_share,
        RngFactory(config.seed).stream("registry"),
    )
    profile = analyze_profile(weights)
    shares = report.component_shares
    jited = shares.get("was_jited", 0.0) + shares.get("was_nonjited", 0.0) * 0.3
    return WorkloadContrast(
        name=name,
        gc_percent=gc_summary.percent_of_runtime,
        jited_share=jited,
        heap_mb=config.jvm.heap_mb,
        profile=profile,
    )


def run(
    config: Optional[ExperimentConfig] = None,
    baseline_duration_s: float = 420.0,
) -> BaselinesResult:
    config = config if config is not None else bench_config()
    jbb = jbb2000_like(duration_s=baseline_duration_s)
    jvm98 = jvm98_like(duration_s=baseline_duration_s)
    # Scale method populations to match the main config's test scale.
    if config.jvm.n_jited_methods < 2000:
        jbb = dataclasses.replace(
            jbb,
            jvm=dataclasses.replace(jbb.jvm, n_jited_methods=300, warm_methods=8),
        )
        jvm98 = dataclasses.replace(
            jvm98,
            jvm=dataclasses.replace(jvm98.jvm, n_jited_methods=150, warm_methods=5),
        )
    return BaselinesResult(
        contrasts={
            "jas2004": _contrast("jas2004", config),
            "jbb2000": _contrast("jbb2000", jbb),
            "jvm98": _contrast("jvm98", jvm98),
        }
    )
