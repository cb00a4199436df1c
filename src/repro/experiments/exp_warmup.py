"""The JIT warm-up dynamic: why the paper profiles the *last* 5 minutes.

Section 4.1.2: "Such a long run was necessary to ensure that most
'important' WebSphere and jas2004 Java methods had a chance to be
profiled by the JVM runtime and then be JIT-compiled into machine code
at high optimization levels."

With the JIT timeline wired into the phase schedule, early sampling
windows execute a share of their would-be-JITed work in the bytecode
interpreter — a megamorphic-dispatch loop — and the hardware shows it:

* more indirect branches and far more target mispredictions,
* more branches per instruction (short dispatch blocks),
* higher CPI,

all of which decay to the steady-state values as the compiled weight
fraction approaches 1.  This experiment samples an early stretch and a
late stretch of the same run and prints the contrast, plus the tprof
view (the JITed share of WAS time growing over the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization, HardwareSummary
from repro.experiments.common import Row, bench_config, header, ratio
from repro.tools.tprof import TprofReport


@dataclass
class WarmupResult:
    config: ExperimentConfig
    early: HardwareSummary
    late: HardwareSummary
    compiled_early: float
    compiled_late: float
    jited_share_early: float
    jited_share_late: float

    def rows(self) -> List[Row]:
        early, late = self.early, self.late
        return [
            Row(
                "compiled weight fraction, early vs late",
                "warmup.compiled_late",
                self.compiled_late,
                f"{self.compiled_early:.2f} -> {self.compiled_late:.2f}",
            ),
            Row(
                "CPI, early vs late",
                "warmup.cpi_ratio",
                ratio(early.cpi, late.cpi),
                f"{early.cpi:.2f} -> {late.cpi:.2f}",
            ),
            Row(
                "target mispredictions, early vs late",
                "warmup.target_mispredict_ratio",
                ratio(early.target_mispredict_rate, late.target_mispredict_rate),
                f"{early.target_mispredict_rate * 100:.1f}% -> "
                f"{late.target_mispredict_rate * 100:.1f}%",
            ),
            Row(
                "branches/instr, early vs late",
                "warmup.branch_density_ratio",
                ratio(early.branches_per_instr, late.branches_per_instr),
                f"{early.branches_per_instr:.3f} -> {late.branches_per_instr:.3f}",
            ),
            Row(
                "tprof JITed share of WAS time grows",
                "warmup.jited_share_ratio",
                ratio(self.jited_share_late, self.jited_share_early),
                f"{self.jited_share_early * 100:.0f}% -> "
                f"{self.jited_share_late * 100:.0f}%",
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 4.1.2: JIT Warm-Up (why profile the last 5 min)")
        lines.append(
            f"  {'stretch':>8} {'compiled':>9} {'CPI':>6} {'ta miss':>8} "
            f"{'br/instr':>9} {'JITed share of WAS':>19}"
        )
        for name, hw, compiled, share in (
            ("early", self.early, self.compiled_early, self.jited_share_early),
            ("late", self.late, self.compiled_late, self.jited_share_late),
        ):
            lines.append(
                f"  {name:>8} {compiled:>9.2f} {hw.cpi:>6.2f} "
                f"{hw.target_mispredict_rate * 100:>7.1f}% "
                f"{hw.branches_per_instr:>9.3f} {share * 100:>18.0f}%"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(
    config: Optional[ExperimentConfig] = None, hw_windows: int = 40
) -> WarmupResult:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    study.ensure_warm()
    schedule = study.core.schedule
    timeline = study.result.timeline

    # Early stretch: just past the JIT's warm-up delay, while most of
    # the weight is still interpreted.
    early_t = study.jit.delay + 5.0
    late_t0, late_t1 = study.result.steady_window()
    late_t = late_t1 - min(300.0, (late_t1 - late_t0) / 3.0)

    early_start = schedule.window_for_tick(int(early_t / timeline.tick_s))
    late_start = schedule.window_for_tick(int(late_t / timeline.tick_s))

    early_samples = study.hpm.sample_all(
        range(early_start, early_start + hw_windows)
    )
    late_samples = study.hpm.sample_all(range(late_start, late_start + hw_windows))

    def tprof_jited_share(window) -> float:
        report = TprofReport(
            study.result, study.registry, jit=study.jit, window=window
        )
        shares = report.component_shares()
        was = shares.get("was_jited", 0.0) + shares.get("was_nonjited", 0.0)
        return shares.get("was_jited", 0.0) / was if was else 0.0

    window_span = hw_windows * config.sampling.window_interval_s
    return WarmupResult(
        config=config,
        early=HardwareSummary.from_snapshots([s.snapshot for s in early_samples]),
        late=HardwareSummary.from_snapshots([s.snapshot for s in late_samples]),
        compiled_early=study.jit.compiled_weight_fraction(early_t),
        compiled_late=study.jit.compiled_weight_fraction(late_t),
        jited_share_early=tprof_jited_share((early_t, early_t + window_span)),
        jited_share_late=tprof_jited_share((late_t, late_t + window_span)),
    )
