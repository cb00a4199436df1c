"""Tests for the experiment-layer helpers: Row tables and the
GC-aware HPM segment sampler."""

import pytest

from repro.config import JvmConfig
from repro.experiments.common import Row, fmt, header, least, quick_config, ratio
from repro.experiments.hpm_segment import Segment, TaggedWindow, sample_segment


class TestRow:
    def test_render_marks(self):
        # hw.cpi [2.5, 3.5]; hw.target_mispredict_rate [0.03, 0.07],
        # waived as known gap 2; whatif.direction_agrees is an extension.
        in_band = Row("metric", "hw.cpi", 3.06, "3.06")
        off = Row("metric", "hw.cpi", 9.0, "9.00")
        gap = Row("metric", "hw.target_mispredict_rate", 0.129, "12.9%")
        stale = Row("metric", "hw.target_mispredict_rate", 0.05, "5.0%")
        ext = Row("metric", "whatif.direction_agrees", True, "sim -0.3 CPI")
        ext_off = Row("metric", "whatif.direction_agrees", False, "sim +0.3 CPI")
        assert in_band.render().endswith("[ok]") and in_band.ok
        assert off.render().endswith("[OFF]") and not off.ok
        assert gap.render().endswith("[gap 2]") and gap.ok
        assert stale.render().endswith("[OFF]") and not stale.ok
        assert ext.render().endswith("[ext]") and ext.ok
        assert ext_off.render().endswith("[OFF]") and not ext_off.ok

    @pytest.mark.parametrize(
        "key, value, mark",
        [
            # A waived band's gap range is the row check it replaced.
            ("pages.dtlb_hit_gain", 2.03, "[gap 3]"),
            ("pages.dtlb_hit_gain", 0.05, "[OFF]"),
            ("pages.dtlb_hit_gain", -0.5, "[OFF]"),
            ("hw.target_mispredict_rate", 0.50, "[OFF]"),
            ("corr.r_cond_mispredict_vs_cpi", 0.16, "[gap 1]"),
            ("corr.r_cond_mispredict_vs_cpi", -0.9, "[OFF]"),
            ("corr.r_cond_mispredict_vs_branches", -0.08, "[gap 4]"),
            ("corr.r_cond_mispredict_vs_branches", -0.9, "[OFF]"),
            ("baselines.jbb_jvm_jit_share", 0.84, "[gap 6]"),
            ("baselines.jbb_jvm_jit_share", 0.10, "[OFF]"),
            # Unwaived: judged by its band alone.
            ("pages.itlb_hit_gain", 0.15, "[ok]"),
            ("pages.itlb_hit_gain", 1.28, "[OFF]"),
            ("pages.itlb_hit_gain", -0.3, "[OFF]"),
        ],
    )
    def test_gap_range_bounds_a_waiver(self, key, value, mark):
        row = Row("metric", key, value, f"{value}")
        assert row.render().endswith(mark)
        assert row.ok == (mark != "[OFF]")

    def test_band_supplies_the_paper_column(self):
        text = Row("CPI (loaded system)", "hw.cpi", 3.06, "3.06").render()
        assert "paper:                 ~3" in text
        assert "measured:               3.06" in text

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            Row("metric", "no.such.band", 1.0, "1.0")

    def test_scaled_band_follows_the_warm_head(self):
        # 41 methods cover half the JITed time: in band for a 40-method
        # head, far below the paper's 224.
        config = quick_config()
        assert config.jvm.warm_methods == 40
        scaled = Row("m", "profile.methods_for_half_jited", 41, "41", config)
        paper = Row("m", "profile.methods_for_half_jited", 41, "41")
        assert scaled.ok and (scaled.band.lo, scaled.band.hi) == (32.0, 50.0)
        assert not paper.ok and JvmConfig().warm_methods == 224

    def test_ratio(self):
        assert ratio(3.0, 2.0) == 1.5
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(0.0, 0.0) != ratio(0.0, 0.0)  # NaN: in no band

    def test_least_keeps_a_nan(self):
        assert least(3.0, 2.0) == 2.0
        # min(2.0, nan) is 2.0; a 0/0 second ratio must still read OFF.
        nan_second = least(ratio(2.0, 1.0), ratio(0.0, 0.0))
        assert nan_second != nan_second
        assert not Row("m", "hw.erat_over_tlb_misses", nan_second, "no").ok

    def test_fmt(self):
        assert fmt(3.14159, 2) == "3.14"
        assert fmt(5, unit="x") == "5x"
        assert fmt(0.5, 1, "%") == "0.5%"

    def test_header(self):
        lines = header("Title")
        assert "Title" in lines
        assert lines[1].startswith("=")


class TestSegmentSampler:
    @pytest.fixture(scope="class")
    def segment(self, quick_study):
        return sample_segment(quick_study, n_mutator=20, n_gc_events=2)

    def test_contains_both_populations(self, segment):
        assert len(segment.mutator) >= 15
        assert len(segment.gc) >= 1

    def test_gc_windows_flagged_correctly(self, segment):
        for window in segment.gc:
            assert window.gc_fraction >= 0.5
        for window in segment.mutator:
            assert window.gc_fraction < 0.5

    def test_values_align_with_windows(self, segment):
        cpis = segment.values(lambda s: s.cpi)
        assert len(cpis) == len(segment.windows)
        assert all(c > 0 for c in cpis)

    def test_mean_over_pool(self, segment):
        overall = segment.mean(lambda s: s.cpi)
        mut = segment.mean(lambda s: s.cpi, segment.mutator)
        assert overall > 0 and mut > 0

    def test_mean_empty_pool_raises(self, segment):
        with pytest.raises(ValueError):
            segment.mean(lambda s: s.cpi, [])

    def test_no_duplicate_windows(self, segment):
        indices = [w.window_index for w in segment.windows]
        assert len(indices) == len(set(indices))


class TestSegmentContainer:
    def test_partitioning(self):
        from repro.hpm.counters import CounterSnapshot

        snap = CounterSnapshot(counts={})
        windows = [
            TaggedWindow(0, snap, 0.0),
            TaggedWindow(1, snap, 0.9),
            TaggedWindow(2, snap, 0.4),
        ]
        segment = Segment(windows=windows)
        assert [w.window_index for w in segment.gc] == [1]
        assert [w.window_index for w in segment.mutator] == [0, 2]
        assert segment.gc_fractions() == [0.0, 0.9, 0.4]
