"""The append-only trajectory file: append, read, pair selection."""

from __future__ import annotations

import json

import pytest

from repro.benchio import BENCH_SCHEMA
from repro.obs.manifest import host_fingerprint
from repro.perf.history import (
    append_record,
    describe_record,
    is_dirty_record,
    latest_pair,
    read_history,
)

RESULTS = {"kernel_a": {"best_s": 0.01, "reps_s": [0.01, 0.011]}}


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        written = append_record(
            path, RESULTS, "perf_suite", repetitions=5, spread={"kernel_a": 0.1}
        )
        records = read_history(path)
        assert len(records) == 1
        assert records[0] == written
        assert records[0]["schema"] == BENCH_SCHEMA
        assert records[0]["kernel_a"] == RESULTS["kernel_a"]
        assert records[0]["repetitions"] == 5

    def test_append_only(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_record(path, {"a": 1}, "k", repetitions=1)
        first_line = path.read_text()
        append_record(path, {"a": 2}, "k", repetitions=1)
        # The first line survives byte-for-byte; one line per record.
        assert path.read_text().startswith(first_line)
        assert len(path.read_text().splitlines()) == 2

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_history(tmp_path / "nope.jsonl") == []

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_record(path, {"a": 1}, "k", repetitions=1)
        with path.open("a") as fh:
            fh.write("\n\n")
        append_record(path, {"a": 2}, "k", repetitions=1)
        assert len(read_history(path)) == 2

    def test_corrupt_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_record(path, {"a": 1}, "k", repetitions=1)
        with path.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError, match=r"hist\.jsonl:2"):
            read_history(path)

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_record(path, {"a": 1}, "perf_suite", repetitions=1)
        append_record(path, {"b": 2}, "core_model_bench", repetitions=1)
        append_record(path, {"c": 3}, "perf_suite", repetitions=1)
        assert len(read_history(path)) == 3
        suite = read_history(path, kind="perf_suite")
        assert [r.get("a", r.get("c")) for r in suite] == [1, 3]

    def test_schema_1_lines_rejected(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        old = {"schema": 1, "kind": "k", "host": host_fingerprint(), "a": 1}
        path.write_text(json.dumps(old) + "\n")
        with pytest.raises(ValueError, match="schema"):
            read_history(path)


def _record(host=None, tag="r"):
    return {
        "schema": BENCH_SCHEMA,
        "kind": "perf_suite",
        "host": host or host_fingerprint(),
        "git_describe": tag,
        "recorded_at": None,
        "repetitions": 5,
        "spread": {},
    }


OTHER_HOST = {
    "python": "3.9.0",
    "implementation": "CPython",
    "platform": "SomewhereElse",
    "machine": "riscv128",
}


class TestLatestPair:
    def test_needs_two_records(self):
        assert latest_pair([]) is None
        assert latest_pair([_record()]) is None

    def test_most_recent_same_host_predecessor(self):
        records = [_record(tag="a"), _record(tag="b"), _record(tag="c")]
        baseline, latest = latest_pair(records)
        assert baseline["git_describe"] == "b"
        assert latest["git_describe"] == "c"

    def test_skips_foreign_host_records(self):
        records = [
            _record(tag="mine-old"),
            _record(host=OTHER_HOST, tag="ci"),
            _record(tag="mine-new"),
        ]
        baseline, latest = latest_pair(records)
        assert baseline["git_describe"] == "mine-old"
        assert latest["git_describe"] == "mine-new"

    def test_no_same_host_predecessor(self):
        records = [_record(host=OTHER_HOST, tag="ci"), _record(tag="mine")]
        assert latest_pair(records) is None
        baseline, latest = latest_pair(records, same_host=False)
        assert baseline["git_describe"] == "ci"
        assert latest["git_describe"] == "mine"


class TestDescribeRecord:
    def test_mentions_revision_and_platform(self):
        record = _record(tag="v1.0-3-gabc")
        text = describe_record(record)
        assert "v1.0-3-gabc" in text
        assert record["host"]["machine"] in text

    def test_tolerates_missing_fields(self):
        assert "unknown" in describe_record({"git_describe": "unknown"})


class TestDirtyRecords:
    def test_is_dirty_record(self):
        assert is_dirty_record(_record(tag="v1-2-gabc-dirty"))
        assert not is_dirty_record(_record(tag="v1-2-gabc"))
        assert not is_dirty_record({"kind": "perf_suite"})

    def test_skip_dirty_passes_over_dirty_baselines(self):
        records = [
            _record(tag="clean"),
            _record(tag="wip-dirty"),
            _record(tag="latest"),
        ]
        baseline, latest = latest_pair(records, skip_dirty=True)
        assert baseline["git_describe"] == "clean"
        assert latest["git_describe"] == "latest"

    def test_skip_dirty_may_leave_no_pair(self):
        records = [_record(tag="wip-dirty"), _record(tag="latest")]
        assert latest_pair(records, skip_dirty=True) is None
        assert latest_pair(records) is not None

    def test_dirty_latest_still_judged(self):
        records = [_record(tag="clean"), _record(tag="now-dirty")]
        baseline, latest = latest_pair(records, skip_dirty=True)
        assert latest["git_describe"] == "now-dirty"
