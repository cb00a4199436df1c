"""Tests for workload presets and the workload-to-CPU bridge."""

import dataclasses

import pytest

from repro.config import SamplingConfig
from repro.cpu.sources import DataSource
from repro.workload.bridge import UniformPhaseSchedule, WorkloadPhaseSchedule
from repro.workload.presets import (
    jas2004,
    jbb2000_like,
    jvm98_like,
    scaled_for_tests,
    tpcw_like,
)
from repro.util.rng import RngFactory


class TestPresets:
    def test_jas2004_defaults(self):
        cfg = jas2004(ir=40)
        assert cfg.workload.injection_rate == 40
        assert cfg.jvm.heap_mb == 1024
        assert cfg.jvm.heap_large_pages

    def test_jbb2000_is_a_simple_benchmark(self):
        cfg = jbb2000_like()
        assert len(cfg.workload.transactions) == 1
        spec = cfg.workload.transactions[0]
        assert spec.cpu_ms["db2"] == 0.0 and spec.cpu_ms["web"] == 0.0
        assert cfg.jvm.heap_mb < 512
        assert cfg.jvm.warm_share > 0.8  # hot profile

    def test_jvm98_even_smaller(self):
        cfg = jvm98_like()
        assert cfg.jvm.heap_mb <= 64
        assert cfg.workload.transactions[0].db_queries == 0.0

    def test_tpcw_has_heavy_modified_sharing(self):
        cfg = tpcw_like()
        assert cfg.workload.sharing.modified_fraction > 0.3
        base = jas2004()
        assert (
            cfg.workload.transactions[0].shared_intensity
            > base.workload.transactions[0].shared_intensity * 3
        )

    def test_scaled_for_tests_shrinks(self):
        cfg = scaled_for_tests(jas2004())
        assert cfg.workload.duration_s <= 240.0
        assert cfg.jvm.n_jited_methods <= 500

    def test_baseline_runs_are_stable(self):
        """The small-heap presets must survive their whole run without
        exhausting the heap (regression: queue explosion under GC)."""
        from repro.workload.sut import SystemUnderTest
        from repro.workload.metrics import evaluate_run

        for preset in (jbb2000_like(duration_s=180.0), jvm98_like(duration_s=150.0)):
            result = SystemUnderTest(preset).run()
            report = evaluate_run(result)
            assert report.jops > 0
            assert report.gc_count > 3  # small heaps collect often


class TestWorkloadPhaseSchedule:
    @pytest.fixture(scope="class")
    def schedule(self, quick_run, quick_registry, quick_space):
        return WorkloadPhaseSchedule(
            quick_run, quick_registry, quick_space, RngFactory(3)
        )

    def test_descriptor_fractions_sum_to_one(self, schedule):
        for idx in range(0, 50, 7):
            descriptor = schedule.descriptor_for(idx)
            assert sum(f for _, f in descriptor.slices) == pytest.approx(1.0)

    def test_kernel_excluded_by_default(self, schedule):
        for idx in range(0, 30, 3):
            descriptor = schedule.descriptor_for(idx)
            names = {p.name for p, _ in descriptor.slices}
            assert "kernel" not in names

    def test_gc_windows_found_and_flagged(self, schedule):
        gc_indices = schedule.gc_window_indices(max_events=3)
        assert gc_indices
        descriptor = schedule.descriptor_for(gc_indices[0])
        assert descriptor.gc_fraction > 0.3
        names = {p.name for p, _ in descriptor.slices}
        assert "gc_mark" in names

    def test_window_tick_round_trip(self, schedule):
        tick = schedule.tick_for_window(17)
        assert schedule.window_for_tick(tick) == 17

    def test_wraps_past_end_of_run(self, schedule, quick_run):
        huge = len(quick_run.timeline.records) * 3
        descriptor = schedule.descriptor_for(huge)
        assert descriptor.slices  # wrapped into the steady region

    def test_intensity_blend_reflects_mix(self, schedule, quick_run):
        """Windows exist with differing transaction mixes, producing
        differing intensities (checked indirectly via larx rates)."""
        rates = set()
        for idx in range(0, 60, 5):
            descriptor = schedule.descriptor_for(idx)
            for profile, _ in descriptor.slices:
                if profile.name == "was_jited":
                    rates.add(round(profile.larx_per_instr, 8))
        assert len(rates) > 5


class TestUniformSchedule:
    def test_static_composition(self, quick_registry, quick_space):
        schedule = UniformPhaseSchedule(
            quick_registry, quick_space, RngFactory(4)
        )
        descriptor = schedule.descriptor_for(0)
        names = {p.name for p, _ in descriptor.slices}
        assert names == {"was_jited", "was_nonjited", "web", "db2"}
        assert sum(f for _, f in descriptor.slices) == pytest.approx(1.0)
