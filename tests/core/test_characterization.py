"""End-to-end tests for the characterization orchestrator, the rule
base, and the report renderer."""

import dataclasses

import pytest

from repro.config import SamplingConfig
from repro.core.characterization import Characterization, HardwareSummary
from repro.core.insights import derive_findings
from repro.core.report import render_lines, render_report
from repro.cpu.reference import ReferenceCoreModel
from repro.cpu.sources import DataSource, InstSource
from repro.hpm.groups import default_catalog
from repro.workload.presets import jas2004


@pytest.fixture(scope="module")
def full_report(quick_study):
    return quick_study.run(hw_windows=40, correlation_windows_per_group=30)


class TestHardwareSummary:
    def test_from_snapshots(self, hw_snapshots):
        hw = HardwareSummary.from_snapshots(hw_snapshots)
        assert 2.0 < hw.cpi < 4.5
        assert 1.7 < hw.speculation_rate < 3.0
        assert 0.4 < hw.memory_ops_per_instr < 0.65
        assert sum(hw.data_source_shares.values()) == pytest.approx(1.0)
        assert sum(hw.inst_source_shares.values()) == pytest.approx(1.0)

    def test_paper_bands(self, hw_snapshots):
        """The headline Section 4.2 ratios stay in the paper's bands."""
        hw = HardwareSummary.from_snapshots(hw_snapshots)
        assert 2.5 < hw.instr_per_load < 4.0  # paper: 3.2
        assert 3.8 < hw.instr_per_store < 6.0  # paper: 4.5
        assert 0.05 < hw.l1d_load_miss_rate < 0.15  # paper: 1/12
        assert 0.10 < hw.l1d_store_miss_rate < 0.28  # paper: 1/5
        assert 0.65 < hw.data_source_shares[DataSource.L2] < 0.85  # paper: 75%
        assert 0.03 < hw.cond_mispredict_rate < 0.09  # paper: 6%
        assert hw.derat_miss_per_instr < 0.01  # paper: >100 instr apart
        assert 0.5 < hw.tlb_satisfies_derat < 0.9  # paper: 75%
        assert 350 < hw.instr_per_larx < 1000  # paper: ~600
        assert hw.sync_srq_fraction < 0.01  # paper: <1%
        assert hw.modified_remote_share < 0.01  # paper: very little

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HardwareSummary.from_snapshots([])


class TestCoreModelSeam:
    def test_rebound_class_builds_every_core(self):
        # The benchmarks reach the oracle by rebinding core_model_cls
        # on a subclass; both the shared core and group_core must
        # honour it.  A tiny config keeps this well under 1 s.
        cfg = jas2004(duration_s=30.0, seed=2007)
        cfg = dataclasses.replace(
            cfg,
            jvm=dataclasses.replace(
                cfg.jvm, n_jited_methods=200, warm_methods=10
            ),
            sampling=SamplingConfig(window_cycles=2000, warmup_windows=1),
        )

        class Pinned(Characterization):
            core_model_cls = ReferenceCoreModel

        study = Pinned(cfg)
        first_group = next(iter(default_catalog())).name
        assert type(study.core) is ReferenceCoreModel
        assert type(study.group_core(first_group)) is ReferenceCoreModel


class TestCharacterizationReport:
    def test_all_sections_present(self, full_report):
        assert full_report.benchmark.passed
        assert full_report.gc.collections > 3
        assert full_report.profile.n_items > 0
        assert full_report.hardware.instructions > 0
        assert full_report.correlations is not None
        assert full_report.findings

    def test_component_shares(self, full_report):
        shares = full_report.component_shares
        assert shares["was_jited"] > 0.15
        assert 0.005 < full_report.jas2004_share < 0.05

    def test_hottest_method_name(self, full_report):
        assert "CharToByte" in full_report.hottest_method_name


class TestInsights:
    def test_paper_findings_fire_for_jas2004(self, full_report):
        ids = {f.id for f in full_report.findings}
        assert "gc-not-a-bottleneck" in ids
        assert "mark-locality" in ids
        assert "memory-intensive" in ids
        assert "co-scheduling-unpromising" in ids
        assert "code-footprint-large" in ids
        assert "sync-cheap" in ids
        assert "locking-frequent-uncontended" in ids
        assert "cpi-correlates" in ids

    def test_contradictory_findings_never_fire_together(self, full_report):
        ids = {f.id for f in full_report.findings}
        assert not ("gc-not-a-bottleneck" in ids and "gc-significant" in ids)
        assert not ("flat-profile" in ids and "hot-spots-exist" in ids)
        assert not (
            "co-scheduling-unpromising" in ids and "co-scheduling-promising" in ids
        )

    def test_findings_render(self, full_report):
        for finding in full_report.findings:
            text = finding.render()
            assert finding.id in text
            assert "evidence:" in text

    def test_derive_is_pure(self, full_report):
        again = derive_findings(full_report)
        assert [f.id for f in again] == [f.id for f in full_report.findings]


class TestReportRendering:
    def test_render_contains_all_sections(self, full_report):
        text = render_report(full_report)
        for marker in (
            "Benchmark (high-level)",
            "Garbage collection (Figure 3)",
            "CPU profile (Figure 4)",
            "Hardware summary (Figures 5-9)",
            "CPI correlation (Figure 10)",
            "Findings",
        ):
            assert marker in text

    def test_render_lines_are_strings(self, full_report):
        for line in render_lines(full_report):
            assert isinstance(line, str)

    def test_inst_sources_rendered(self, full_report):
        text = render_report(full_report)
        assert InstSource.L1.value in text
