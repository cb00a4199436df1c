"""The statistical regression gate on synthetic histories.

Every scenario the gate policy distinguishes gets a hand-built pair
of records: unchanged, clearly regressed, improved, warn-band,
single-shot baseline, changed size parameters, and cross-host.
"""

from __future__ import annotations

from repro.benchio import BENCH_SCHEMA
from repro.obs.manifest import host_fingerprint
from repro.perf.gate import (
    IMPROVED,
    INFO,
    OK,
    REGRESSED,
    WARN,
    compare_records,
    diff_lines,
    evaluate_gate,
)

OTHER_HOST = {
    "python": "3.9.0",
    "implementation": "CPython",
    "platform": "SomewhereElse",
    "machine": "riscv128",
}


def record(kernels, host=None, tag="rev"):
    """A schema-2 history record around ``{name: reps_s list}``."""
    doc = {
        "schema": BENCH_SCHEMA,
        "kind": "perf_suite",
        "host": host or host_fingerprint(),
        "git_describe": tag,
        "recorded_at": None,
        "repetitions": 5,
        "spread": {},
    }
    for name, reps in kernels.items():
        if isinstance(reps, dict):
            doc[name] = reps
        else:
            doc[name] = {
                "reps_s": list(reps),
                "best_s": min(reps),
                "median_s": sorted(reps)[len(reps) // 2],
                "spread": (max(reps) - min(reps)) / min(reps),
                "windows": 4,
            }
    return doc


# Tight, well-separated repetition samples: the baseline cluster and a
# 2x / 1.2x / 0.8x shifted copy of it.
BASE = [0.100, 0.101, 0.102, 0.103, 0.104]
DOUBLED = [0.200, 0.202, 0.204, 0.206, 0.208]
WARNBAND = [0.120, 0.121, 0.122, 0.123, 0.124]
FASTER = [0.080, 0.081, 0.082, 0.083, 0.084]


def verdict_of(report, kernel):
    return {v.kernel: v for v in report.verdicts}[kernel]


class TestCompareRecords:
    def test_unchanged_is_ok(self):
        report = compare_records(
            record({"k": BASE}), record({"k": [t + 1e-4 for t in BASE]})
        )
        assert verdict_of(report, "k").verdict == OK
        assert report.passed

    def test_significant_doubling_regresses(self):
        report = compare_records(record({"k": BASE}), record({"k": DOUBLED}))
        v = verdict_of(report, "k")
        assert v.verdict == REGRESSED
        assert v.ratio >= 1.9
        assert v.p_value < 0.05
        assert not report.passed

    def test_warn_band_slowdown_warns_but_passes(self):
        report = compare_records(record({"k": BASE}), record({"k": WARNBAND}))
        v = verdict_of(report, "k")
        assert v.verdict == WARN
        assert report.passed
        assert v in report.warnings

    def test_improvement_reported(self):
        report = compare_records(record({"k": BASE}), record({"k": FASTER}))
        assert verdict_of(report, "k").verdict == IMPROVED
        assert report.passed

    def test_large_ratio_without_significance_cannot_fail(self):
        # Single-shot baseline: a 2x ratio but no distribution to test.
        base = record({"k": {"reps_s": [0.1], "best_s": 0.1, "windows": 4}})
        new = record({"k": {"reps_s": [0.2], "best_s": 0.2, "windows": 4}})
        v = verdict_of(compare_records(base, new), "k")
        assert v.verdict == WARN
        assert v.p_value is None
        assert "single-shot" in v.note

    def test_changed_size_parameters_not_comparable(self):
        base = record({"k": {"reps_s": BASE, "best_s": min(BASE), "windows": 4}})
        new = record(
            {"k": {"reps_s": DOUBLED, "best_s": min(DOUBLED), "windows": 12}}
        )
        v = verdict_of(compare_records(base, new), "k")
        assert v.verdict == INFO
        assert "not comparable" in v.note

    def test_new_and_vanished_kernels_are_info(self):
        report = compare_records(
            record({"old": BASE}), record({"fresh": BASE})
        )
        assert verdict_of(report, "fresh").verdict == INFO
        assert verdict_of(report, "old").verdict == INFO
        assert report.passed

    def test_cross_host_caps_at_warn(self):
        report = compare_records(
            record({"k": BASE}, host=OTHER_HOST),
            record({"k": DOUBLED}),
            cross_host=True,
        )
        v = verdict_of(report, "k")
        assert v.verdict == WARN
        assert "cross-host" in v.note
        assert report.passed

    def test_json_dict_carries_every_verdict(self):
        report = compare_records(
            record({"a": BASE, "b": BASE}), record({"a": DOUBLED, "b": FASTER})
        )
        doc = report.to_json_dict()
        assert doc["passed"] is False
        assert {v["kernel"] for v in doc["verdicts"]} == {"a", "b"}


class TestEvaluateGate:
    def test_short_history_skips_and_passes(self):
        report = evaluate_gate([record({"k": BASE})])
        assert report.passed
        assert "fewer than two" in report.skipped_reason
        text = "\n".join(report.render_lines())
        assert "SKIPPED" in text and "PASS" in text

    def test_latest_judged_against_same_host_baseline(self):
        records = [
            record({"k": BASE}, tag="old"),
            record({"k": DOUBLED}, host=OTHER_HOST, tag="ci"),
            record({"k": [t + 1e-4 for t in BASE]}, tag="new"),
        ]
        report = evaluate_gate(records)
        # The CI record from another host is skipped over: new vs old.
        assert report.passed
        assert "old" in report.baseline_id

    def test_regression_fails_the_gate(self):
        report = evaluate_gate([record({"k": BASE}), record({"k": DOUBLED})])
        assert not report.passed
        assert "FAIL" in "\n".join(report.render_lines())

    def test_cross_host_fallback_is_warn_only(self):
        records = [
            record({"k": BASE}, host=OTHER_HOST, tag="ci"),
            record({"k": DOUBLED}, tag="mine"),
        ]
        report = evaluate_gate(records)
        assert report.passed
        assert verdict_of(report, "k").verdict == WARN

    def test_thresholds_are_tunable(self):
        records = [record({"k": BASE}), record({"k": WARNBAND})]
        strict = evaluate_gate(records, fail_ratio=1.1)
        assert not strict.passed
        lax = evaluate_gate(records, warn_ratio=1.3)
        assert verdict_of(lax, "k").verdict == OK


class TestHostSpeedRescaling:
    """Records carrying reference rounds are compared in host-speed units."""

    @staticmethod
    def entry(reps, rounds):
        return {
            "reps_s": list(reps),
            "rounds_s": list(rounds),
            "best_s": min(reps),
            "median_s": sorted(reps)[len(reps) // 2],
            "spread": (max(reps) - min(reps)) / min(reps),
            "windows": 4,
        }

    def test_slower_host_is_not_a_regression(self):
        # Raw times 1.4x apart, but every reference round is 1.4x
        # slower too: the host slowed, not the kernel.
        slow = [t * 1.4 for t in BASE]
        base = record({"k": self.entry(BASE, [0.002] * 5)})
        new = record({"k": self.entry(slow, [0.0028] * 5)})
        assert not evaluate_gate([base, record({"k": slow})]).passed
        report = evaluate_gate([base, new])
        assert report.passed, "\n".join(report.render_lines())
        assert verdict_of(report, "k").ratio == 1.0
        assert "rescaled" in verdict_of(report, "k").note

    def test_slower_kernel_on_same_host_regresses(self):
        rounds = [0.0020, 0.0021, 0.0019, 0.0020, 0.0022]
        base = record({"k": self.entry(BASE, rounds)})
        new = record({"k": self.entry(DOUBLED, rounds)})
        report = evaluate_gate([base, new])
        assert not report.passed
        assert verdict_of(report, "k").verdict == REGRESSED

    def test_rounds_on_one_side_only_compare_raw(self):
        base = record({"k": BASE})
        new = record({"k": self.entry(BASE, [0.004] * 5)})
        verdict = verdict_of(evaluate_gate([base, new]), "k")
        assert verdict.verdict == OK and verdict.ratio == 1.0
        assert "rescaled" not in verdict.note


class TestDiffLines:
    def test_table_lists_kernels_and_ratio(self):
        lines = diff_lines(
            record({"k": BASE}, tag="revA"), record({"k": DOUBLED}, tag="revB")
        )
        text = "\n".join(lines)
        assert "revA" in text and "revB" in text
        assert "k" in text
        assert "2.00x" in text

    def test_one_sided_kernels_flagged(self):
        text = "\n".join(
            diff_lines(record({"only_a": BASE}), record({"only_b": BASE}))
        )
        assert "A only" in text
        assert "B only" in text


class TestDirtyBaselineHygiene:
    """`-dirty` envelopes are flagged and never promoted to baseline."""

    def test_dirty_baseline_is_skipped_for_older_clean_one(self):
        records = [
            record({"k": BASE}, tag="v1"),
            record({"k": DOUBLED}, tag="v1-2-gabc-dirty"),
            record({"k": [t + 1e-4 for t in BASE]}, tag="v2"),
        ]
        report = evaluate_gate(records)
        # Judged against the clean v1 record, not the dirty 2x one:
        # an honest rerun passes instead of "improving" vs bad data.
        assert verdict_of(report, "k").verdict == OK
        assert "v1 " in report.baseline_id
        assert any("dirty" in note for note in report.notes)

    def test_dirty_latest_is_judged_but_flagged(self):
        records = [
            record({"k": BASE}, tag="v1"),
            record({"k": DOUBLED}, tag="v1-2-gabc-dirty"),
        ]
        report = evaluate_gate(records)
        assert verdict_of(report, "k").verdict == REGRESSED
        assert any(
            "latest record was measured in a dirty working tree" in note
            for note in report.notes
        )

    def test_all_dirty_baselines_skip_the_gate(self):
        records = [
            record({"k": BASE}, tag="v1-dirty"),
            record({"k": DOUBLED}, tag="v2-dirty"),
            record({"k": BASE}, tag="v3"),
        ]
        report = evaluate_gate(records)
        assert report.skipped_reason
        assert "dirty" in report.skipped_reason
        assert report.passed
        assert report.to_json_dict()["notes"] == report.notes

    def test_clean_cross_host_beats_dirty_same_host(self):
        records = [
            record({"k": BASE}, host=OTHER_HOST, tag="ci"),
            record({"k": BASE}, tag="mine-dirty"),
            record({"k": DOUBLED}, tag="mine"),
        ]
        report = evaluate_gate(records)
        # Cross-host comparisons never fail, but the dirty same-host
        # record must not have been used either.
        v = verdict_of(report, "k")
        assert v.verdict == WARN
        assert "cross-host" in v.note
