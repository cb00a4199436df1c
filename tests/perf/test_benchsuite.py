"""The best-of-N suite, and the gate acceptance scenario end to end.

The acceptance test is the one the observatory exists for: inject a
2x slowdown into ``SliceRunner.run_until`` (the hot kernel), record a
trajectory point, and the gate must FAIL — while an unmodified rerun
of identical work must PASS.
"""

from __future__ import annotations

import time

import pytest

from repro.cpu.stream import SliceRunner
from repro.perf.benchsuite import (
    MIN_REPETITIONS,
    SUITE_KIND,
    best_of,
    render_suite_lines,
    run_suite,
    suite_spread,
)
from repro.perf.gate import REGRESSED, evaluate_gate
from repro.perf.history import append_record, read_history


class TestBestOf:
    def test_measures_every_repetition(self):
        calls = []

        def setup():
            calls.append("setup")
            return object()

        result = best_of(setup, lambda state: None, reps=5)
        assert calls == ["setup"] * 5
        assert len(result["reps_s"]) == 5
        # One host-speed reference round next to every repetition.
        assert len(result["rounds_s"]) == 5 and min(result["rounds_s"]) > 0
        assert result["best_s"] == min(result["reps_s"])
        assert result["best_s"] <= result["median_s"]
        assert result["spread"] >= 0.0

    def test_setup_outside_timed_region(self):
        def slow_setup():
            time.sleep(0.02)
            return None

        result = best_of(slow_setup, lambda state: None, reps=5)
        # 20ms of setup per rep must not leak into the timings.
        assert result["best_s"] < 0.01

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="at least one"):
            best_of(lambda: None, lambda s: None, reps=0)


class TestRunSuite:
    def test_quick_suite_shape(self):
        results = run_suite(quick=True)
        assert set(results) == {
            "cache_kernel",
            "counter_kernel",
            "window_execution",
            "characterize_windows",
            "reproduce_all_fused",
            "sut_tick_loop",
            "run_analysis",
            "runcache_read",
        }
        for entry in results.values():
            assert len(entry["reps_s"]) == MIN_REPETITIONS
            assert entry["best_s"] > 0
        # Size parameters travel with the measurement.
        assert results["window_execution"]["windows"] == 4
        assert results["characterize_windows"]["windows"] == 4
        assert results["characterize_windows"]["duration_s"] == 60.0
        assert results["cache_kernel"]["accesses"] == 50_000
        assert results["reproduce_all_fused"]["modules"] == [
            "fig05_cpi",
            "fig07_tlb",
        ]
        assert results["reproduce_all_fused"]["duration_s"] == 60.0
        assert results["sut_tick_loop"]["duration_s"] == 30.0
        assert results["run_analysis"]["duration_s"] == 30.0
        assert results["runcache_read"]["duration_s"] == 30.0

    def test_repetition_floor_enforced(self):
        with pytest.raises(ValueError, match=">= 5"):
            run_suite(quick=True, reps=3)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            run_suite(quick=True, kernels=["nonesuch"])

    def test_kernel_selection(self):
        results = run_suite(quick=True, kernels=["counter_kernel"])
        assert list(results) == ["counter_kernel"]

    def test_spread_and_rendering(self):
        results = run_suite(quick=True, kernels=["counter_kernel"])
        spread = suite_spread(results)
        assert set(spread) == {"counter_kernel"}
        text = "\n".join(render_suite_lines(results, MIN_REPETITIONS))
        assert "counter_kernel" in text
        assert "best of 5" in text


class TestGateAcceptance:
    """ISSUE acceptance: the gate catches an injected 2x slowdown."""

    KERNELS = ["window_execution"]

    def _bench_to(self, history):
        results = run_suite(quick=True, kernels=self.KERNELS)
        append_record(
            history,
            results,
            SUITE_KIND,
            repetitions=MIN_REPETITIONS,
            spread=suite_spread(results),
        )

    def test_unmodified_rerun_passes_then_injected_slowdown_fails(
        self, tmp_path, monkeypatch
    ):
        history = tmp_path / "hist.jsonl"
        self._bench_to(history)

        # Honest rerun of identical work: the gate must pass.
        self._bench_to(history)
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert report.passed, "\n".join(report.render_lines())

        # Inject a 2x slowdown into the hot kernel: after the real
        # slice executes, burn the same wall time again.
        original = SliceRunner.run_until

        def slowed(self, cycle_limit):
            t0 = time.perf_counter()
            original(self, cycle_limit)
            deadline = 2 * time.perf_counter() - t0
            while time.perf_counter() < deadline:
                pass

        monkeypatch.setattr(SliceRunner, "run_until", slowed)
        self._bench_to(history)
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert not report.passed, "\n".join(report.render_lines())
        verdict = {v.kernel: v for v in report.verdicts}["window_execution"]
        assert verdict.verdict == REGRESSED
        assert verdict.ratio >= 1.4
        assert verdict.p_value < 0.05

        # And science was untouched: a post-restore rerun still passes
        # against the pre-injection baseline... once the poisoned
        # record is the baseline, however, the rerun shows IMPROVED —
        # either way, not REGRESSED.
        monkeypatch.undo()
        self._bench_to(history)
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert report.passed, "\n".join(report.render_lines())
