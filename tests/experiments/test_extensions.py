"""Integration tests for the extension experiments: what-if ablation,
processor scaling, the tuning walk, the cluster deployment, the heap
sweep, resilience, the methodology ablation and JIT warm-up."""

import pytest

from repro.experiments import exp_cluster, exp_scaling, exp_tuning, exp_whatif
from tests.conftest import make_quick_config

#: Campaign sweeps (the methodology ablation alone re-runs the Figure
#: 10 study several times) — full-CI tier, not tier-1.
pytestmark = pytest.mark.slow


def off_labels(result):
    return {r.label for r in result.rows() if r.ok is False}


@pytest.fixture(scope="module")
def config():
    return make_quick_config()


class TestWhatIfAblation:
    @pytest.fixture(scope="class")
    def result(self, config):
        return exp_whatif.run(config, hw_windows=30)

    def test_directions_agree(self, result):
        off = off_labels(result)
        # Allow at most one noise-driven disagreement at test scale.
        assert len(off) <= 1, off

    def test_faster_l3_validates(self, result):
        outcome = result.outcomes["faster-l3"]
        assert outcome.simulated_delta < -0.05
        assert outcome.estimate.cpi_delta < -0.05

    def test_render(self, result):
        assert "What-If" in "\n".join(result.render_lines())


class TestScaling:
    @pytest.fixture(scope="class")
    def result(self, config):
        return exp_scaling.run(config, hw_windows=20)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_throughput_monotone_sublinear(self, result):
        jops = [result.points[c].jops for c in (2, 4, 8, 16)]
        assert jops == sorted(jops)
        assert jops[-1] / result.points[4].jops < 4.0

    def test_l25_only_with_multi_chip_mcm(self, result):
        assert result.points[4].l25_share == 0.0
        assert result.points[8].l25_share > 0.0

    def test_render(self, result):
        assert "Processor Scaling" in "\n".join(result.render_lines())


class TestTuningWalk:
    @pytest.fixture(scope="class")
    def result(self, config):
        return exp_tuning.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_untuned_thrashes_in_gc(self, result):
        assert result.steps["untuned"].report.gc_fraction > 0.05
        assert result.steps["+heap"].report.gc_fraction < 0.03

    def test_final_state_matches_paper_calibration(self, result):
        tuned = result.steps["+ramdisk"].report
        assert tuned.passed
        assert tuned.jops_per_ir == pytest.approx(1.6, abs=0.15)

    def test_render(self, result):
        assert "Tuning Walk" in "\n".join(result.render_lines())


class TestCluster:
    @pytest.fixture(scope="class")
    def result(self, config):
        return exp_cluster.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_single_server_preferred_at_equal_cores(self, result):
        equal = result.clusters["equal-cores"]
        assert result.single.jops >= equal.jops * 0.97

    def test_scaled_out_recovers(self, result):
        assert result.clusters["scaled-out"].passed

    def test_blade_gc_counts(self, result):
        equal = result.clusters["equal-cores"]
        assert sum(equal.gc_events_per_blade) > result.single.gc_count

    def test_render(self, result):
        assert "Blade Cluster" in "\n".join(result.render_lines())


class TestHeapSweep:
    @pytest.fixture(scope="class")
    def result(self, config):
        from repro.experiments import exp_heap_sweep

        return exp_heap_sweep.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_blackburn_regime(self, result):
        assert result.points[256].gc_fraction > 0.05
        assert not result.points[256].passed

    def test_paper_regime(self, result):
        assert result.points[1024].gc_fraction < 0.02
        assert result.points[1024].passed

    def test_render(self, result):
        assert "Heap Size" in "\n".join(result.render_lines())


class TestResilience:
    @pytest.fixture(scope="class")
    def result(self, config):
        from repro.experiments import exp_resilience

        return exp_resilience.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_brownout_sheds_load(self, result):
        # The brownout row judges web goodput over hard rejection,
        # which is only a brownout if it shed low-priority load.
        assert result.scenarios["overload-brownout"].report.shed_ops > 0

    def test_render(self, result):
        assert "Resilience" in "\n".join(result.render_lines())


class TestMethodologyAblation:
    @pytest.fixture(scope="class")
    def result(self, config):
        from repro.experiments import exp_methodology

        return exp_methodology.run(config)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_convergence(self, result):
        budgets = sorted(result.deviation)
        assert result.deviation[budgets[-1]] < result.deviation[budgets[0]]

    def test_render(self, result):
        assert "Sampling Budget" in "\n".join(result.render_lines())


class TestWarmup:
    @pytest.fixture(scope="class")
    def result(self, config):
        from repro.experiments import exp_warmup

        return exp_warmup.run(config, hw_windows=20)

    def test_all_rows_ok(self, result):
        assert not off_labels(result)

    def test_interpreter_dominates_early_misses(self, result):
        assert (
            result.early.target_mispredict_rate
            > result.late.target_mispredict_rate * 1.5
        )

    def test_steady_state_unaffected(self, result):
        """Late-run hardware numbers stay in the calibrated bands."""
        assert 2.4 < result.late.cpi < 3.8
        assert result.late.target_mispredict_rate < 0.25

    def test_render(self, result):
        assert "JIT Warm-Up" in "\n".join(result.render_lines())
