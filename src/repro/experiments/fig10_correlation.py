"""Figure 10: statistical correlation of hardware events with CPI.

The paper's concluding analysis.  Expected shape (Section 4.3):

* strongly positive: the prefetch events (L1D/L2 prefetches, stream
  allocations), SYNCs, translation misses, instruction fetches from
  beyond the L1I, and data fetched from memory;
* strongly negative: cycles-with-completion and instruction fetches
  satisfied by the L1I (productive windows complete more);
* weak: raw L1D load/store miss counts ("the L2 latency is
  sufficiently short ... the front-end is capable of supplying useful
  work while L1 misses are being serviced") and the speculation rate;
* special pairs: target-address mispredictions correlate with
  instruction cache misses (~strong +); speculation vs L1 performance
  ~0.1; branches vs target mispredictions ~-0.07; conditional
  mispredictions vs branches ~0.43.

Known calibration gap (recorded in EXPERIMENTS.md): the conditional-
misprediction bar reproduces *weaker* than the paper's — our
misprediction-rate variance across windows is conservative — so the
test band for it only requires non-strongly-negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.core.correlation import CpiCorrelationReport, CpiCorrelationStudy
from repro.experiments.common import Row, bench_config, fmt, header
from repro.hpm.events import Event


@dataclass
class Figure10Result:
    config: ExperimentConfig
    report: CpiCorrelationReport

    def rows(self) -> List[Row]:
        r = self.report.r_of
        e = Event
        c = self.report
        mem, l1i = r(e.PM_DATA_FROM_MEM), r(e.PM_INST_FROM_L1)
        judged = (
            (
                "prefetch events vs CPI",
                "corr.r_prefetch_vs_cpi",
                max(r(e.PM_L1_PREF), r(e.PM_L2_PREF), r(e.PM_STREAM_ALLOC)),
            ),
            ("SYNC vs CPI", "corr.r_sync_vs_cpi", r(e.PM_SYNC_CNT)),
            (
                "translation misses vs CPI",
                "corr.r_translation_vs_cpi",
                max(r(e.PM_DERAT_MISS), r(e.PM_DTLB_MISS)),
            ),
            (
                "instruction fetch beyond L1 vs CPI",
                "corr.r_ifetch_beyond_l1_vs_cpi",
                max(r(e.PM_INST_FROM_L2), r(e.PM_INST_FROM_L3), r(e.PM_INST_FROM_MEM)),
            ),
            ("data from memory vs CPI", "corr.r_data_from_mem_vs_cpi", mem),
            (
                "cycles w/ instr completed vs CPI",
                "corr.r_cycles_completing_vs_cpi",
                r(e.PM_CYC_INST_CMPL),
            ),
            ("instr fetched from L1I vs CPI", "corr.r_inst_from_l1i_vs_cpi", l1i),
            ("L1D load miss vs CPI", "corr.r_l1d_load_miss_vs_cpi", r(e.PM_LD_MISS_L1)),
            (
                "conditional mispredictions vs CPI",
                "corr.r_cond_mispredict_vs_cpi",
                r(e.PM_BR_MPRED_CR),
            ),
            (
                "r(target mispred, icache miss)",
                "corr.r_target_miss_vs_icache_miss",
                c.r_target_miss_vs_icache_miss,
            ),
            (
                "r(speculation rate, L1 miss rate)",
                "corr.r_speculation_vs_l1_miss",
                c.r_speculation_vs_l1_miss,
            ),
            (
                "r(branches, target mispred)",
                "corr.r_branches_vs_target_miss",
                c.r_branches_vs_target_miss,
            ),
            (
                "r(cond mispred, branches)",
                "corr.r_cond_mispredict_vs_branches",
                c.r_cond_miss_vs_branches,
            ),
        )
        return [
            Row(label, key, value, fmt(value, 2))
            for label, key, value in judged
            if value is not None
        ]

    def render_lines(self) -> List[str]:
        lines = header("Figure 10: CPI Statistical Correlation (r)")
        for label, r in self.report.bars():
            n = int(round(abs(r) * 12))
            bar = ("#" * n).rjust(12) + "|" if r < 0 else "|" + "#" * n
            lines.append(f"  {label:24s} {bar:<26s} {r:+.2f}")
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(
    config: Optional[ExperimentConfig] = None, windows_per_group: int = 110
) -> Figure10Result:
    """Run the Figure 10 campaign: one shared core cycled through the
    counter groups, exactly as hpmstat cycles groups on one machine
    during a long run."""
    config = config if config is not None else bench_config()
    study = Characterization(config)
    study.ensure_warm()
    report = CpiCorrelationStudy(study.hpm).run(windows_per_group=windows_per_group)
    return Figure10Result(config=config, report=report)
