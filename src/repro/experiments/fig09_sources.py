"""Figure 9: where L1D load misses are satisfied from.

The paper's Figure 9 stacks the data sources: ~75% from the local L2,
the majority of the rest from L3 and memory, a little L2.75-shared and
L3.5, and — the headline — *very little* L2.75-modified traffic, unlike
the Java TPC-W study of Cain et al.  On the paper's topology (one live
chip per MCM) there is no L2.5 traffic at all.

Besides the base figure, this experiment reproduces two contrasts:

* a TPC-W-like preset whose shared data is write-heavy, flipping the
  modified-transfer share up (Section 5's related-work contrast);
* a single-MCM topology variant, which converts L2.75 traffic into
  L2.5 traffic (footnote 3's dependence on topology).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig, MachineConfig, TopologyConfig
from repro.core.characterization import Characterization, HardwareSummary
from repro.cpu.sources import DataSource
from repro.experiments.common import Row, bench_config, fmt, header, ratio
from repro.workload.presets import tpcw_like


@dataclass
class Figure9Result:
    config: ExperimentConfig
    shares: Dict[DataSource, float]
    tpcw_modified_share: Optional[float]
    l25_single_mcm: Optional[float]

    @property
    def modified_share(self) -> float:
        return self.shares.get(DataSource.L25_MOD, 0.0) + self.shares.get(
            DataSource.L275_MOD, 0.0
        )

    def rows(self) -> List[Row]:
        s = self.shares
        l25 = s.get(DataSource.L25_SHR, 0.0) + s.get(DataSource.L25_MOD, 0.0)
        rows = [
            Row(
                "satisfied from local L2",
                "hw.l2_share_of_l1d_misses",
                s[DataSource.L2],
                fmt(s[DataSource.L2] * 100, 1, "%"),
            ),
            Row(
                "satisfied from L3",
                "hw.l3_share_of_l1d_misses",
                s[DataSource.L3],
                fmt(s[DataSource.L3] * 100, 1, "%"),
            ),
            Row(
                "satisfied from memory",
                "hw.mem_share_of_l1d_misses",
                s[DataSource.MEM],
                fmt(s[DataSource.MEM] * 100, 1, "%"),
            ),
            Row(
                "L2.75 modified (c2c) share",
                "hw.modified_c2c_share",
                self.modified_share,
                fmt(self.modified_share * 100, 2, "%"),
            ),
            Row(
                "L2.5 share (one live chip per MCM)",
                "hw.l25_share",
                l25,
                fmt(l25 * 100, 2, "%"),
            ),
        ]
        if self.tpcw_modified_share is not None:
            rows.append(
                Row(
                    "TPC-W-like modified c2c share",
                    "hw.tpcw_modified_c2c_ratio",
                    ratio(self.tpcw_modified_share, self.modified_share),
                    fmt(self.tpcw_modified_share * 100, 1, "%"),
                )
            )
        if self.l25_single_mcm is not None:
            rows.append(
                Row(
                    "L2.5 share with 2 chips on one MCM",
                    "hw.l25_share_two_chips",
                    self.l25_single_mcm,
                    fmt(self.l25_single_mcm * 100, 1, "%"),
                )
            )
        return rows

    def render_lines(self) -> List[str]:
        lines = header("Figure 9: Data Loaded From (after an L1 miss)")
        for src in DataSource:
            share = self.shares.get(src, 0.0)
            bar = "#" * int(round(share * 60))
            lines.append(f"  {src.value:16s} {share * 100:6.2f}% {bar}")
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _source_shares(config: ExperimentConfig, hw_windows: int) -> HardwareSummary:
    study = Characterization(config)
    samples = study.sample_windows(hw_windows)
    return HardwareSummary.from_snapshots([s.snapshot for s in samples])


def run(
    config: Optional[ExperimentConfig] = None,
    hw_windows: int = 60,
    with_contrasts: bool = True,
) -> Figure9Result:
    config = config if config is not None else bench_config()
    hw = _source_shares(config, hw_windows)

    tpcw_modified = None
    l25 = None
    if with_contrasts:
        tpcw = tpcw_like(duration_s=min(600.0, config.workload.duration_s))
        tpcw = dataclasses.replace(tpcw, sampling=config.sampling)
        tpcw_hw = _source_shares(tpcw, max(20, hw_windows // 2))
        tpcw_modified = tpcw_hw.modified_remote_share

        single_mcm = dataclasses.replace(
            config,
            machine=MachineConfig(
                l1i=config.machine.l1i,
                l1d=config.machine.l1d,
                translation=config.machine.translation,
                branch=config.machine.branch,
                prefetcher=config.machine.prefetcher,
                latencies=config.machine.latencies,
                topology=TopologyConfig(
                    n_mcms=1, live_chips_per_mcm=2, cores_per_chip=2
                ),
            ),
        )
        mcm_hw = _source_shares(single_mcm, max(20, hw_windows // 2))
        l25 = mcm_hw.data_source_shares.get(
            DataSource.L25_SHR, 0.0
        ) + mcm_hw.data_source_shares.get(DataSource.L25_MOD, 0.0)

    return Figure9Result(
        config=config,
        shares=hw.data_source_shares,
        tpcw_modified_share=tpcw_modified,
        l25_single_mcm=l25,
    )
