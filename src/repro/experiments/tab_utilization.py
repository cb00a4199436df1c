"""Section 4.1's utilization and disk observations.

* At IR 47 the system runs at ~100% CPU with ~80% user / ~20% system
  time; at IR 40 (the setting used for the analysis) the load level is
  ~90%.
* With the database on two hard disks, I/O wait grows until response
  times blow past the deadlines and the benchmark *fails*; a RAM disk
  (or "more disks") fixes it — the paper verified the two are
  equivalent for the data collected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from repro.config import DiskConfig, ExperimentConfig
from repro.experiments.common import Row, bench_config, fmt, header, simulate
from repro.workload.metrics import BenchmarkReport, evaluate_run


@dataclass
class UtilizationResult:
    config: ExperimentConfig
    ir40: BenchmarkReport
    ir47: BenchmarkReport
    ram_disk: BenchmarkReport
    two_disks: BenchmarkReport
    many_disks: BenchmarkReport

    def rows(self) -> List[Row]:
        return [
            Row(
                "CPU utilization at IR 40",
                "workload.utilization",
                self.ir40.utilization,
                fmt(self.ir40.utilization * 100, 1, "%"),
            ),
            Row(
                "CPU utilization at IR 47",
                "workload.utilization_ir47",
                self.ir47.utilization,
                fmt(self.ir47.utilization * 100, 1, "%"),
            ),
            Row(
                "user / system split at IR 47",
                "workload.kernel_share_ir47",
                self.ir47.kernel_fraction,
                f"{fmt(self.ir47.user_fraction * 100, 0, '%')} / "
                f"{fmt(self.ir47.kernel_fraction * 100, 0, '%')}",
            ),
            Row(
                "RAM-disk run passes deadlines",
                "disks.ram_disk_passes",
                self.ram_disk.passed,
                "pass" if self.ram_disk.passed else "FAIL",
            ),
            Row(
                "2-hard-disk run",
                "disks.two_disks_pass",
                self.two_disks.passed,
                "fail" if not self.two_disks.passed else "PASSES",
            ),
            Row(
                "more disks equivalent to RAM disk",
                "disks.many_disks_pass",
                self.many_disks.passed,
                "pass" if self.many_disks.passed else "FAIL",
            ),
            Row(
                "JOPS/IR on tuned system",
                "workload.jops_per_ir",
                self.ir40.jops_per_ir,
                fmt(self.ir40.jops_per_ir, 2),
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 4.1: Utilization and Disk Configuration")
        for name, report in (
            ("IR 40, RAM disk", self.ir40),
            ("IR 47, RAM disk", self.ir47),
            ("IR 40, 2 hard disks", self.two_disks),
            ("IR 40, 10 hard disks", self.many_disks),
        ):
            lines.append(f"  --- {name} ---")
            lines.extend("  " + l for l in report.summary_lines())
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _run_at(
    config: ExperimentConfig,
    ir: Optional[int] = None,
    disk: Optional[DiskConfig] = None,
) -> BenchmarkReport:
    workload = config.workload
    if ir is not None:
        workload = dataclasses.replace(workload, injection_rate=ir)
    if disk is not None:
        workload = dataclasses.replace(workload, disk=disk)
    cfg = dataclasses.replace(config, workload=workload)
    return evaluate_run(simulate(cfg))


def run(config: Optional[ExperimentConfig] = None) -> UtilizationResult:
    config = config if config is not None else bench_config()
    ir40 = _run_at(config)
    return UtilizationResult(
        config=config,
        ir40=ir40,
        ir47=_run_at(config, ir=47),
        ram_disk=ir40,
        two_disks=_run_at(config, disk=DiskConfig.hard_disks(2)),
        many_disks=_run_at(config, disk=DiskConfig.hard_disks(10)),
    )
