"""Tests for the tprof/vmstat/verbosegc tool equivalents."""

import pytest

from repro.jvm.jit import JitCompiler
from repro.tools.tprof import TprofReport
from repro.tools.verbosegc import VerboseGcLog
from repro.tools.vmstat import VmstatReport
from repro.util.rng import RngFactory


class TestVerboseGc:
    def test_summary_matches_events(self, quick_run, quick_config):
        log = VerboseGcLog(quick_run.gc_events, quick_config.workload.duration_s)
        summary = log.summary()
        assert summary.collections == len(quick_run.gc_events)
        assert 20 < summary.mean_period_s < 35
        assert 200 < summary.mean_pause_ms < 500
        assert summary.percent_of_runtime < 0.025
        assert summary.mean_mark_fraction > 0.7
        assert summary.compactions == 0

    def test_dark_matter_rate_near_paper(self, quick_run, quick_config):
        log = VerboseGcLog(quick_run.gc_events, quick_config.workload.duration_s)
        assert log.summary().dark_matter_mb_per_min == pytest.approx(1.0, abs=0.6)

    def test_render_lines(self, quick_run, quick_config):
        log = VerboseGcLog(quick_run.gc_events, quick_config.workload.duration_s)
        lines = log.render_lines(limit=3)
        assert len(lines) == 3
        assert "pause=" in lines[0] and "mark=" in lines[0]

    def test_empty_log(self):
        summary = VerboseGcLog([], 60.0).summary()
        assert summary.collections == 0
        assert summary.mean_period_s is None

    def test_table_lines(self, quick_run, quick_config):
        log = VerboseGcLog(quick_run.gc_events, quick_config.workload.duration_s)
        text = "\n".join(log.summary().table_lines())
        assert "Time Between GC" in text
        assert "Average Percent of Runtime" in text


class TestVmstat:
    @pytest.fixture(scope="class")
    def vmstat(self, quick_run):
        return VmstatReport(quick_run, interval_s=5.0)

    def test_rows_cover_run(self, vmstat, quick_config):
        expected = int(quick_config.workload.duration_s / 5.0)
        assert len(vmstat.rows) == pytest.approx(expected, abs=1)

    def test_percentages_sum_sane(self, vmstat):
        for row in vmstat.rows:
            total = row.user_pct + row.system_pct + row.idle_pct + row.iowait_pct
            assert total == pytest.approx(100.0, abs=1.5)

    def test_steady_user_system_split(self, vmstat):
        assert vmstat.mean_user_pct() > 60.0
        assert 10.0 < vmstat.mean_system_pct() < 25.0

    def test_ram_disk_has_no_iowait(self, vmstat):
        assert vmstat.mean_iowait_pct() < 2.0

    def test_render(self, vmstat):
        lines = vmstat.render_lines(limit=5)
        assert "us" in lines[0] and "wa" in lines[0]
        assert len(lines) == 6


    def test_run_shorter_than_one_interval_raises_value_error(self):
        from repro.workload.presets import jas2004
        from repro.workload.sut import SystemUnderTest

        report = VmstatReport(SystemUnderTest(jas2004(duration_s=4.0, seed=1)).run())
        assert report.rows == []
        for mean in (
            report.mean_user_pct,
            report.mean_system_pct,
            report.mean_iowait_pct,
        ):
            with pytest.raises(ValueError, match="shorter than one vmstat interval"):
                mean()


class TestTprof:
    @pytest.fixture(scope="class")
    def tprof(self, quick_run, quick_registry, quick_config):
        jit = JitCompiler(
            quick_registry, RngFactory(quick_config.seed).stream("jit")
        )
        return TprofReport(quick_run, quick_registry, jit=jit)

    def test_component_shares_sum_to_one(self, tprof):
        assert sum(tprof.component_shares().values()) == pytest.approx(1.0)

    def test_was_dominates(self, tprof):
        assert tprof.was_share() > 0.45

    def test_jas2004_share_small(self, tprof):
        assert 0.005 < tprof.jas2004_share() < 0.05

    def test_hottest_method_is_char_converter(self, tprof):
        assert "CharToByte" in tprof.hottest_method().name
        assert tprof.hottest_method().percent_jited < 5.0

    def test_method_lines_ordered(self, tprof):
        lines = tprof.method_lines(top=20)
        percents = [l.percent_jited for l in lines]
        assert percents == sorted(percents, reverse=True)

    def test_methods_for_jited_share(self, tprof, quick_config):
        n = tprof.methods_for_jited_share(0.5)
        warm = quick_config.jvm.warm_methods
        assert warm * 0.5 <= n <= warm * 2

    def test_render(self, tprof):
        text = "\n".join(tprof.render_lines(top=5))
        assert "tprof" in text
        assert "was_jited" in text


class TestVmstatWithHardDisks:
    def test_iowait_visible_under_disk_pressure(self):
        """A disk-bound run shows non-zero I/O wait in vmstat — the
        signal the paper tuned away."""
        import dataclasses

        from repro.config import DiskConfig
        from repro.workload.presets import jas2004
        from repro.workload.sut import SystemUnderTest

        cfg = jas2004(duration_s=120.0, disk=DiskConfig.hard_disks(2), seed=77)
        cfg = dataclasses.replace(
            cfg,
            jvm=dataclasses.replace(cfg.jvm, n_jited_methods=300, warm_methods=20),
        )
        result = SystemUnderTest(cfg).run()
        report = VmstatReport(result, interval_s=5.0)
        assert report.mean_iowait_pct() > 1.0
