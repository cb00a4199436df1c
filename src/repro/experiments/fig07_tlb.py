"""Figure 7: TLB and ERAT miss frequencies.

The paper plots D/I ERAT and D/I TLB misses per instruction (Bezier
smoothed).  Key claims: more than 100 instructions retire between DERAT
misses; the TLB satisfies ~75% of DERAT misses; the ERAT lines sit well
above the TLB lines; and during GC the TLB misses drop by 2-3 orders of
magnitude (the heap — all a GC touches — lives in 16 MB pages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.core.smoothing import bezier_smooth
from repro.experiments.common import Row, bench_config, fmt, header, least, ratio
from repro.experiments.hpm_segment import Segment, sample_segment
from repro.hpm.events import Event


def _per_instr(snapshot, event: Event) -> float:
    return snapshot[event] / max(1, snapshot.instructions)


@dataclass
class Figure7Result:
    config: ExperimentConfig
    segment: Segment
    derat_per_instr: float
    ierat_per_instr: float
    dtlb_per_instr: float
    itlb_per_instr: float
    tlb_satisfies_derat: float
    dtlb_gc_ratio: Optional[float]
    itlb_gc_ratio: Optional[float]

    def rows(self) -> List[Row]:
        instr_between = 1.0 / max(1e-12, self.derat_per_instr)
        rows = [
            Row(
                "instructions between DERAT misses",
                "hw.instr_per_derat_miss",
                instr_between,
                fmt(instr_between, 0),
            ),
            Row(
                "TLB satisfies DERAT misses",
                "hw.tlb_satisfies_derat",
                self.tlb_satisfies_derat,
                fmt(self.tlb_satisfies_derat * 100, 0, "%"),
            ),
            Row(
                "ERAT lines above TLB lines",
                "hw.erat_over_tlb_misses",
                least(
                    ratio(self.derat_per_instr, self.dtlb_per_instr),
                    ratio(self.ierat_per_instr, self.itlb_per_instr),
                ),
                "yes"
                if min(self.derat_per_instr, self.ierat_per_instr)
                > max(self.dtlb_per_instr, self.itlb_per_instr) * 0.8
                else "no",
            ),
        ]
        if self.dtlb_gc_ratio is not None:
            rows.append(
                Row(
                    "DTLB misses during GC vs mutator",
                    "hw.gc_dtlb_miss_ratio",
                    self.dtlb_gc_ratio,
                    fmt(self.dtlb_gc_ratio, 3, "x"),
                )
            )
        if self.itlb_gc_ratio is not None:
            rows.append(
                Row(
                    "ITLB misses during GC vs mutator",
                    "hw.gc_itlb_miss_ratio",
                    self.itlb_gc_ratio,
                    fmt(self.itlb_gc_ratio, 3, "x"),
                )
            )
        return rows

    def render_lines(self, n_points: int = 14) -> List[str]:
        lines = header("Figure 7: TLB Miss Frequency (misses per instruction)")
        windows = self.segment.windows
        xs = [float(w.window_index) for w in windows]
        lines.append("  window    DERAT      IERAT      DTLB       ITLB      gc")
        step = max(1, len(windows) // n_points)
        for w in windows[::step]:
            s = w.snapshot
            lines.append(
                f"  {w.window_index:6d} {_per_instr(s, Event.PM_DERAT_MISS):9.2e} "
                f"{_per_instr(s, Event.PM_IERAT_MISS):9.2e} "
                f"{_per_instr(s, Event.PM_DTLB_MISS):9.2e} "
                f"{_per_instr(s, Event.PM_ITLB_MISS):9.2e}"
                f"{'   GC' if w.gc_fraction >= 0.5 else ''}"
            )
        # Bezier-smoothed DERAT curve, as the paper's figure is drawn.
        derat = [_per_instr(w.snapshot, Event.PM_DERAT_MISS) for w in windows]
        _, smooth = bezier_smooth(xs, derat, n_points=8)
        lines.append(
            "  DERAT (bezier): " + " ".join(f"{v:.2e}" for v in smooth)
        )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(
    config: Optional[ExperimentConfig] = None,
    n_mutator: int = 80,
    n_gc_events: int = 3,
) -> Figure7Result:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    segment = sample_segment(study, n_mutator=n_mutator, n_gc_events=n_gc_events)

    mut = segment.mutator
    gc = segment.gc
    derat = segment.mean(lambda s: _per_instr(s, Event.PM_DERAT_MISS), mut)
    dtlb = segment.mean(lambda s: _per_instr(s, Event.PM_DTLB_MISS), mut)
    itlb = segment.mean(lambda s: _per_instr(s, Event.PM_ITLB_MISS), mut)

    def ratio(event: Event, mutator_level: float) -> Optional[float]:
        if not gc or mutator_level <= 0:
            return None
        return segment.mean(lambda s: _per_instr(s, event), gc) / mutator_level

    return Figure7Result(
        config=config,
        segment=segment,
        derat_per_instr=derat,
        ierat_per_instr=segment.mean(
            lambda s: _per_instr(s, Event.PM_IERAT_MISS), mut
        ),
        dtlb_per_instr=dtlb,
        itlb_per_instr=itlb,
        tlb_satisfies_derat=1.0 - dtlb / derat if derat else 1.0,
        dtlb_gc_ratio=ratio(Event.PM_DTLB_MISS, dtlb),
        itlb_gc_ratio=ratio(Event.PM_ITLB_MISS, itlb),
    )
