"""Integration tests for the in-text table experiments."""

import pytest

from repro.experiments import (
    tab_baselines,
    tab_large_pages,
    tab_locking,
    tab_utilization,
)
from tests.conftest import make_quick_config


def off_labels(result):
    return {r.label for r in result.rows() if r.ok is False}


@pytest.fixture(scope="module")
def config():
    return make_quick_config()


class TestUtilization:
    @pytest.fixture(scope="class")
    def result(self, config):
        return tab_utilization.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_ir_sweep_monotone(self, result):
        assert result.ir47.utilization > result.ir40.utilization

    def test_disk_story(self, result):
        assert result.ram_disk.passed
        assert not result.two_disks.passed
        assert result.many_disks.passed

    def test_render(self, result):
        assert "Utilization" in "\n".join(result.render_lines())


class TestLargePages:
    @pytest.fixture(scope="class")
    def result(self, config):
        return tab_large_pages.run(config, hw_windows=20)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_variant_ordering(self, result):
        small = result.variants["small"]
        heap = result.variants["heap"]
        code = result.variants["code"]
        assert heap.dtlb_miss_per_instr < small.dtlb_miss_per_instr
        assert code.itlb_miss_per_instr < heap.itlb_miss_per_instr

    def test_render(self, result):
        assert "Large Pages" in "\n".join(result.render_lines())


class TestLocking:
    @pytest.fixture(scope="class")
    def result(self, config):
        return tab_locking.run(config, n_mutator=24, n_gc_events=4)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_kernel_sync_much_higher_than_user(self, result):
        assert result.sync_srq_kernel > result.sync_srq_user * 4

    def test_render(self, result):
        assert "Locking" in "\n".join(result.render_lines())


class TestBaselines:
    @pytest.fixture(scope="class")
    def result(self, config):
        return tab_baselines.run(config, baseline_duration_s=200.0)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_contrast_direction(self, result):
        jas = result.contrasts["jas2004"]
        jbb = result.contrasts["jbb2000"]
        assert jbb.gc_percent > jas.gc_percent
        assert jbb.profile.hottest_share > jas.profile.hottest_share * 5
        # Section 5's other side: jas2004 spends under half its time in
        # JVM+JITed code (its row judges jbb2000's share alone).
        assert jas.jited_share < 0.5

    def test_render(self, result):
        assert "Simple Java Benchmarks" in "\n".join(result.render_lines())
