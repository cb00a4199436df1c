"""Future work (Section 7): the effect of scaling the processor count.

"An evaluation of the effects of scaling the number of processors on
performance will be interesting as the industry moves to designs with
many processor cores."  This experiment runs that study on the model:

* the workload scales its injection rate with the core count (constant
  ~90% per-core load, as a capacity planner would);
* the machine scales its topology (2 -> 4 -> 8 -> 16 cores across
  MCMs/chips), with three physical effects applied:
  memory-bandwidth contention inflates the memory latency, a shared
  per-MCM L3 gets slower as more chips hang off it, and cross-chip
  sharing grows with the number of remote caches (L2.5 traffic appears
  once two chips share an MCM — footnote 3's condition).

Expected shape: throughput grows with cores but per-core efficiency
falls (CPI rises), and the modified/shared c2c traffic grows — the
diminishing-returns curve every commercial-workload scaling study of
the era reported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import (
    ExperimentConfig,
    SharingProfile,
    TopologyConfig,
)
from repro.core.characterization import Characterization, HardwareSummary
from repro.experiments.common import Row, bench_config, fmt, header, least, ratio, simulate
from repro.workload.metrics import evaluate_run

#: (cores, topology) steps of the scaling study.
TOPOLOGIES: Tuple[Tuple[int, TopologyConfig], ...] = (
    (2, TopologyConfig(n_mcms=1, live_chips_per_mcm=1, cores_per_chip=2)),
    (4, TopologyConfig(n_mcms=2, live_chips_per_mcm=1, cores_per_chip=2)),
    (8, TopologyConfig(n_mcms=2, live_chips_per_mcm=2, cores_per_chip=2)),
    (16, TopologyConfig(n_mcms=4, live_chips_per_mcm=2, cores_per_chip=2)),
)

#: Memory latency inflation per core beyond the 4-core baseline
#: (bandwidth contention on the shared memory controllers).
MEM_CONTENTION_PER_CORE = 0.035
#: L3 latency inflation per extra chip sharing the MCM's L3.
L3_SHARING_PENALTY = 0.12
#: Growth of the shared-data remote fraction per extra remote L2.
SHARING_GROWTH = 0.06


def scaled_config(base: ExperimentConfig, cores: int) -> ExperimentConfig:
    """Build the ``cores``-way variant of a 4-core baseline config."""
    topology = dict(TOPOLOGIES).get(cores)
    if topology is None:
        raise ValueError(f"no topology defined for {cores} cores")

    lat = base.machine.latencies
    mem_factor = 1.0 + MEM_CONTENTION_PER_CORE * max(0, cores - 4)
    l3_factor = 1.0 + L3_SHARING_PENALTY * (topology.live_chips_per_mcm - 1)
    latencies = dataclasses.replace(
        lat,
        data_from_mem=lat.data_from_mem * mem_factor,
        inst_from_mem=lat.inst_from_mem * mem_factor,
        data_from_l3=lat.data_from_l3 * l3_factor,
        inst_from_l3=lat.inst_from_l3 * l3_factor,
    )
    machine = dataclasses.replace(
        base.machine, topology=topology, latencies=latencies
    )

    n_remote_l2 = topology.n_mcms * topology.live_chips_per_mcm - 1
    sharing = base.workload.sharing
    sharing = SharingProfile(
        remote_fraction=min(
            0.95, sharing.remote_fraction * (1.0 + SHARING_GROWTH * (n_remote_l2 - 1))
        ),
        modified_fraction=min(
            0.5, sharing.modified_fraction * (1.0 + 0.5 * (n_remote_l2 - 1))
        ),
    )
    ir = max(1, int(round(base.workload.injection_rate * cores / 4)))
    workload = dataclasses.replace(
        base.workload,
        injection_rate=ir,
        sharing=sharing,
        thread_pool=max(8, base.workload.thread_pool * cores // 4),
        max_in_flight=max(100, base.workload.max_in_flight * cores // 4),
    )
    # A bigger box gets a proportionally bigger heap (and carries
    # proportionally more session state) — standard sizing practice.
    jvm = dataclasses.replace(
        base.jvm,
        heap_mb=max(256, base.jvm.heap_mb * cores // 4),
        live_set_mb=base.jvm.live_set_mb * cores / 4,
    )
    return dataclasses.replace(base, machine=machine, workload=workload, jvm=jvm)


@dataclass(frozen=True)
class ScalePoint:
    cores: int
    jops: float
    utilization: float
    passed: bool
    cpi: float
    modified_c2c_share: float
    l25_share: float
    #: All remote-cache sourcing (shared + modified, L2.5 + L2.75).
    remote_share: float = 0.0


@dataclass
class ScalingResult:
    config: ExperimentConfig
    points: Dict[int, ScalePoint]

    def _speedup(self, cores: int) -> float:
        return self.points[cores].jops / self.points[4].jops

    def rows(self) -> List[Row]:
        p2, p4, p8, p16 = (self.points[c] for c in (2, 4, 8, 16))
        return [
            Row(
                "throughput grows with cores",
                "scaling.min_step_gain",
                least(*(ratio(b.jops, a.jops) for a, b in ((p2, p4), (p4, p8), (p8, p16)))),
                f"{p2.jops:.0f} -> {p4.jops:.0f} -> "
                f"{p8.jops:.0f} -> {p16.jops:.0f} JOPS",
            ),
            Row(
                "scaling is sublinear (16 vs 4 cores)",
                "scaling.speedup_16_vs_4",
                self._speedup(16),
                fmt(self._speedup(16), 2, "x"),
            ),
            Row(
                "CPI rises with scale",
                "scaling.cpi_ratio",
                ratio(p16.cpi, p4.cpi),
                f"{p4.cpi:.2f} -> {p16.cpi:.2f}",
            ),
            Row(
                "L2.5 traffic appears with 2 chips/MCM",
                "scaling.l25_share_8_cores",
                p8.l25_share,
                fmt(p8.l25_share * 100, 2, "%"),
            ),
            Row(
                "remote c2c traffic grows with remote caches",
                "scaling.remote_share_growth",
                p16.remote_share - p4.remote_share,
                f"{p4.remote_share * 100:.2f}% -> "
                f"{p16.remote_share * 100:.2f}%",
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 7 (future work): Processor Scaling")
        lines.append(
            f"  {'cores':>6} {'IR':>5} {'JOPS':>8} {'JOPS/core':>10} "
            f"{'CPU%':>6} {'CPI':>6} {'mod c2c%':>9} {'L2.5%':>7} {'pass':>5}"
        )
        for cores, p in sorted(self.points.items()):
            ir = int(round(self.config.workload.injection_rate * cores / 4))
            lines.append(
                f"  {cores:>6} {ir:>5} {p.jops:>8.1f} {p.jops / cores:>10.2f} "
                f"{p.utilization * 100:>6.1f} {p.cpi:>6.2f} "
                f"{p.modified_c2c_share * 100:>9.2f} {p.l25_share * 100:>7.2f} "
                f"{'yes' if p.passed else 'NO':>5}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _with_demand_factor(
    config: ExperimentConfig, factor: float
) -> ExperimentConfig:
    """Scale every transaction's CPU demand by ``factor``.

    This is the coupling that makes scaling sublinear: a higher CPI
    means each transaction burns more cycles, i.e. more CPU time at a
    fixed frequency.
    """
    transactions = tuple(
        dataclasses.replace(
            spec,
            cpu_ms={name: ms * factor for name, ms in spec.cpu_ms.items()},
        )
        for spec in config.workload.transactions
    )
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(
            config.workload, transactions=transactions
        ),
    )


def run(
    config: Optional[ExperimentConfig] = None, hw_windows: int = 40
) -> ScalingResult:
    config = config if config is not None else bench_config()
    from repro.cpu.sources import DataSource

    # Pass 1: microarchitectural cost of each topology.
    hw_by_cores: Dict[int, HardwareSummary] = {}
    for cores, _ in TOPOLOGIES:
        cfg = scaled_config(config, cores)
        study = Characterization(cfg)
        samples = study.sample_windows(hw_windows)
        hw_by_cores[cores] = HardwareSummary.from_snapshots(
            [s.snapshot for s in samples]
        )
    baseline_cpi = hw_by_cores[4].cpi

    # Pass 2: workload capacity with CPI-scaled CPU demands.
    points: Dict[int, ScalePoint] = {}
    for cores, _ in TOPOLOGIES:
        hw = hw_by_cores[cores]
        cfg = _with_demand_factor(
            scaled_config(config, cores), hw.cpi / baseline_cpi
        )
        report = evaluate_run(simulate(cfg))
        l25 = hw.data_source_shares.get(
            DataSource.L25_SHR, 0.0
        ) + hw.data_source_shares.get(DataSource.L25_MOD, 0.0)
        remote = l25 + hw.data_source_shares.get(
            DataSource.L275_SHR, 0.0
        ) + hw.data_source_shares.get(DataSource.L275_MOD, 0.0)
        points[cores] = ScalePoint(
            cores=cores,
            jops=report.jops,
            utilization=report.utilization,
            passed=report.passed,
            cpi=hw.cpi,
            modified_c2c_share=hw.modified_remote_share,
            l25_share=l25,
            remote_share=remote,
        )
    return ScalingResult(config=config, points=points)
