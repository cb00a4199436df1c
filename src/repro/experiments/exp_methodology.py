"""Methodology ablation: how much sampling does Figure 10 need?

DESIGN.md calls out two methodology-level choices this reproduction
makes: sampling windows are scaled down from the HPM's 0.1 s, and the
correlation study measures each counter group over its own stretch of
windows.  Both choices trade wall-clock for estimator quality, so this
ablation quantifies the trade:

* **convergence** — the correlation estimates from small window
  budgets are compared against a large-budget reference; the mean
  absolute deviation should shrink as windows grow (roughly like
  1/sqrt(n));
* **stability** — with the bench budget, two disjoint stretches of the
  same run should produce the same *signs* for the decisive events.

This is the experiment to consult before trusting a Figure 10 produced
with fewer windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.core.correlation import CpiCorrelationStudy
from repro.experiments.common import Row, bench_config, fmt, header, ratio
from repro.hpm.events import Event

#: Window budgets (per counter group) compared against the reference.
BUDGETS: Tuple[int, ...] = (10, 25, 60)
REFERENCE_BUDGET = 140

#: Events whose signs the paper's conclusions rest on.
DECISIVE_EVENTS = (
    Event.PM_CYC_INST_CMPL,
    Event.PM_INST_FROM_L1,
    Event.PM_DATA_FROM_MEM,
    Event.PM_L1_PREF,
)


@dataclass
class MethodologyResult:
    config: ExperimentConfig
    #: budget -> mean |r - r_reference| over all events.
    deviation: Dict[int, float]
    #: (stretch A signs, stretch B signs) for the decisive events.
    sign_agreement: Dict[Event, bool]

    def rows(self) -> List[Row]:
        budgets = sorted(self.deviation)
        deviations = [self.deviation[b] for b in budgets]
        agreement = sum(self.sign_agreement.values())
        return [
            Row(
                "correlation error shrinks with window budget",
                "methodology.error_shrink",
                ratio(deviations[-1], deviations[0]),
                " -> ".join(f"{d:.3f}" for d in deviations),
            ),
            Row(
                f"error at {budgets[-1]} windows/group",
                "methodology.error_at_max_budget",
                deviations[-1],
                fmt(deviations[-1], 3),
            ),
            Row(
                "decisive signs stable across run stretches",
                "methodology.sign_flips",
                len(self.sign_agreement) - agreement,
                f"{agreement}/{len(self.sign_agreement)}",
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Methodology Ablation: Sampling Budget for Figure 10")
        lines.append("  mean |r - r_ref| by windows-per-group budget:")
        for budget in sorted(self.deviation):
            lines.append(f"    {budget:>4} windows: {self.deviation[budget]:.3f}")
        lines.append("  decisive-event sign stability across stretches:")
        for event, agrees in self.sign_agreement.items():
            lines.append(
                f"    {event.value:22s} {'stable' if agrees else 'UNSTABLE'}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(config: Optional[ExperimentConfig] = None) -> MethodologyResult:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    study.ensure_warm()
    correlator = CpiCorrelationStudy(study.hpm)
    n_groups = len(study.hpm.catalog)

    cursor = 0

    def next_stretch(budget: int):
        nonlocal cursor
        report = correlator.run(windows_per_group=budget, start_window=cursor)
        cursor += budget * n_groups
        return report

    reference = next_stretch(REFERENCE_BUDGET)
    deviation: Dict[int, float] = {}
    for budget in BUDGETS:
        report = next_stretch(budget)
        errors = [
            abs(report.r_of(event) - reference.r_of(event))
            for event in report.correlations
            if event in reference.correlations
        ]
        deviation[budget] = sum(errors) / len(errors)

    stretch_b = next_stretch(60)
    sign_agreement = {
        event: (reference.r_of(event) >= 0) == (stretch_b.r_of(event) >= 0)
        for event in DECISIVE_EVENTS
    }
    return MethodologyResult(
        config=config, deviation=deviation, sign_agreement=sign_agreement
    )
