"""Figure 5: CPI, speculation rate, and L1 miss rate over time.

The paper's Figure 5 shows a CPI of ~3 on the tuned, loaded system
(0.7 idle), a dispatched-to-completed ratio of ~2.2-2.5 ("for every 5
instructions dispatched, only slightly more than 2 are retired"), and
notes that neither CPI nor the speculation rate correlates strongly
with garbage collections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.core.vertical import gc_alignment
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.phases import PhaseDescriptor, idle_profile
from repro.experiments.common import Row, bench_config, fmt, header
from repro.experiments.hpm_segment import Segment, sample_segment
from repro.util.rng import RngFactory


@dataclass
class Figure5Result:
    config: ExperimentConfig
    segment: Segment
    cpi: float
    idle_cpi: float
    speculation_rate: float
    l1d_miss_rate: float
    r_cpi_gc: float
    r_spec_gc: float

    def rows(self) -> List[Row]:
        return [
            Row("CPI (loaded system)", "hw.cpi", self.cpi, fmt(self.cpi, 2)),
            Row("CPI (idle system)", "hw.idle_cpi", self.idle_cpi, fmt(self.idle_cpi)),
            Row(
                "speculation rate (dispatched/completed)",
                "hw.speculation_rate",
                self.speculation_rate,
                fmt(self.speculation_rate, 2),
            ),
            Row(
                "L1D miss rate",
                "hw.l1d_miss_rate",
                self.l1d_miss_rate,
                fmt(self.l1d_miss_rate * 100, 1, "%"),
            ),
            Row(
                "CPI correlation with GC",
                "hw.r_cpi_vs_gc",
                self.r_cpi_gc,
                fmt(self.r_cpi_gc, 2),
            ),
            Row(
                "speculation correlation with GC",
                "hw.r_speculation_vs_gc",
                self.r_spec_gc,
                fmt(self.r_spec_gc, 2),
            ),
        ]

    def render_lines(self, n_points: int = 16) -> List[str]:
        lines = header("Figure 5: CPI, Speculation Rate, and L1 Miss Rate")
        lines.append("  window      CPI   disp/cmpl   L1D miss   gc")
        windows = self.segment.windows
        step = max(1, len(windows) // n_points)
        for w in windows[::step]:
            s = w.snapshot
            lines.append(
                f"  {w.window_index:6d} {s.cpi:8.2f} {s.speculation_rate:11.2f} "
                f"{s.l1d_miss_rate * 100:9.1f}% {'  GC' if w.gc_fraction >= 0.5 else ''}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def measure_idle_cpi(config: ExperimentConfig, n_windows: int = 8) -> float:
    """CPI of the unloaded system (the OS idle loop)."""
    from repro.cpu.regions import AddressSpace

    rngs = RngFactory(config.seed + 99)
    space = AddressSpace.build(config.machine, config.jvm, config.workload.sharing)
    idle = idle_profile(rngs.stream("idle"), space)
    schedule = StaticSchedule(PhaseDescriptor(slices=((idle, 1.0),), label="idle"))
    core = CoreModel(config.machine, space, schedule, config.sampling, rngs)
    core.warm_up(range(3))
    snaps = [core.execute_window(i) for i in range(n_windows)]
    agg = snaps[0]
    for s in snaps[1:]:
        agg = agg.merged_with(s)
    return agg.cpi


def run(
    config: Optional[ExperimentConfig] = None,
    n_mutator: int = 80,
    n_gc_events: int = 3,
) -> Figure5Result:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    segment = sample_segment(study, n_mutator=n_mutator, n_gc_events=n_gc_events)

    gc_fracs = segment.gc_fractions()
    cpis = segment.values(lambda s: s.cpi)
    specs = segment.values(lambda s: s.speculation_rate)
    r_cpi = gc_alignment(cpis, gc_fracs).r_with_gc
    r_spec = gc_alignment(specs, gc_fracs).r_with_gc

    return Figure5Result(
        config=config,
        segment=segment,
        cpi=segment.mean(lambda s: s.cpi, segment.mutator),
        idle_cpi=measure_idle_cpi(config),
        speculation_rate=segment.mean(lambda s: s.speculation_rate, segment.mutator),
        l1d_miss_rate=segment.mean(lambda s: s.l1d_miss_rate, segment.mutator),
        r_cpi_gc=r_cpi,
        r_spec_gc=r_spec,
    )
