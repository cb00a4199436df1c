"""Section 4.2.2's large-page ablation.

The paper's system maps the Java heap (and selected GC structures) into
16 MB pages.  "Enabling large pages increases DTLB hit rates by 25%,
and because of the reduced pressure on the unified TLB, ITLB hit rates
also increase by 15%."  It also proposes the then-future optimization
of placing executable/JIT code into large pages.

Three configurations are measured:

* ``small``  — 4 KB pages everywhere (ablation baseline);
* ``heap``   — 16 MB pages for the heap (the paper's system);
* ``code``   — heap *and* JIT code in large pages (the proposal).

The DTLB/ITLB *hit rates* compared are those of the unified TLB's
lookups on each side, exactly the counters the claim is phrased over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.experiments.common import Row, bench_config, fmt, header, ratio


@dataclass(frozen=True)
class PageVariant:
    """Measured translation behavior of one page configuration."""

    name: str
    dtlb_hit_rate: float
    itlb_hit_rate: float
    dtlb_miss_per_instr: float
    itlb_miss_per_instr: float
    cpi: float


@dataclass
class LargePagesResult:
    config: ExperimentConfig
    variants: Dict[str, PageVariant]

    def _gain(self, metric: str, frm: str, to: str) -> float:
        a = getattr(self.variants[frm], metric)
        b = getattr(self.variants[to], metric)
        return (b - a) / a if a else 0.0

    def rows(self) -> List[Row]:
        dtlb_gain = self._gain("dtlb_hit_rate", "small", "heap")
        itlb_gain = self._gain("itlb_hit_rate", "small", "heap")
        small = self.variants["small"]
        code = self.variants["code"]
        heap = self.variants["heap"]
        return [
            Row(
                "DTLB hit-rate gain from heap large pages",
                "pages.dtlb_hit_gain",
                dtlb_gain,
                fmt(dtlb_gain * 100, 1, "%"),
            ),
            Row(
                "ITLB hit-rate gain (unified TLB relief)",
                "pages.itlb_hit_gain",
                itlb_gain,
                fmt(itlb_gain * 100, 1, "%"),
            ),
            Row(
                "code large pages cut ITLB misses further",
                "pages.code_itlb_miss_ratio",
                ratio(code.itlb_miss_per_instr, heap.itlb_miss_per_instr),
                f"{fmt(heap.itlb_miss_per_instr, 6)} -> "
                f"{fmt(code.itlb_miss_per_instr, 6)} /instr",
            ),
            Row(
                "large pages improve CPI",
                "pages.cpi_ratio",
                ratio(heap.cpi, small.cpi),
                f"{fmt(small.cpi, 2)} -> {fmt(heap.cpi, 2)}",
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 4.2.2: Large Pages Ablation")
        lines.append(
            "  variant   DTLB hit   ITLB hit   DTLB/instr   ITLB/instr    CPI"
        )
        for name in ("small", "heap", "code"):
            v = self.variants[name]
            lines.append(
                f"  {name:8s} {v.dtlb_hit_rate * 100:8.1f}% {v.itlb_hit_rate * 100:9.1f}% "
                f"{v.dtlb_miss_per_instr:12.2e} {v.itlb_miss_per_instr:12.2e} {v.cpi:6.2f}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _measure(config: ExperimentConfig, hw_windows: int) -> PageVariant:
    study = Characterization(config)
    samples = study.sample_windows(hw_windows)
    snaps = [s.snapshot for s in samples]
    agg = snaps[0]
    for s in snaps[1:]:
        agg = agg.merged_with(s)
    translation = study.core.translation
    name = (
        "code"
        if config.jvm.code_large_pages
        else ("heap" if config.jvm.heap_large_pages else "small")
    )
    n = max(1, agg.instructions)
    from repro.hpm.events import Event

    return PageVariant(
        name=name,
        dtlb_hit_rate=translation.dtlb_hit_rate,
        itlb_hit_rate=translation.itlb_hit_rate,
        dtlb_miss_per_instr=agg[Event.PM_DTLB_MISS] / n,
        itlb_miss_per_instr=agg[Event.PM_ITLB_MISS] / n,
        cpi=agg.cpi,
    )


def run(
    config: Optional[ExperimentConfig] = None, hw_windows: int = 50
) -> LargePagesResult:
    config = config if config is not None else bench_config()
    variants: Dict[str, PageVariant] = {}
    for heap_lp, code_lp in ((False, False), (True, False), (True, True)):
        cfg = dataclasses.replace(
            config,
            jvm=dataclasses.replace(
                config.jvm, heap_large_pages=heap_lp, code_large_pages=code_lp
            ),
        )
        variant = _measure(cfg, hw_windows)
        variants[variant.name] = variant
    return LargePagesResult(config=config, variants=variants)
