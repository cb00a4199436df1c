"""Regression tests for the BENCH_*.json envelope (schema 2)."""

import json

import pytest

from repro.benchio import (
    BENCH_SCHEMA,
    RESERVED_KEYS,
    bench_payload,
    bench_results,
    read_bench_json,
    read_bench_payload,
    write_bench_json,
)
from repro.obs.manifest import host_fingerprint

ENVELOPE_KEYS = {
    "schema",
    "kind",
    "host",
    "git_describe",
    "recorded_at",
    "repetitions",
    "spread",
}


class TestEnvelope:
    def test_schema_is_the_integer_two(self):
        payload = bench_payload({"kernel": {"ns": 12}}, kind="core_model_bench")
        # An *integer* version — consumers compare with == 2, and the
        # envelope format is pinned by this test.
        assert payload["schema"] == 2
        assert isinstance(payload["schema"], int)
        assert BENCH_SCHEMA == 2

    def test_kind_and_host_stamped(self):
        payload = bench_payload({"a": 1}, kind="sweep_bench")
        assert payload["kind"] == "sweep_bench"
        assert payload["host"] == host_fingerprint()

    def test_provenance_fields_stamped(self):
        payload = bench_payload({"a": 1}, kind="k", repetitions=5)
        assert isinstance(payload["git_describe"], str)
        assert payload["git_describe"]
        # UTC ISO-8601 with second precision.
        assert payload["recorded_at"].endswith("+00:00")
        assert "T" in payload["recorded_at"]
        assert payload["repetitions"] == 5
        assert payload["spread"] == {}

    def test_spread_copied_in(self):
        spread = {"kernel": 0.07}
        payload = bench_payload({"kernel": 1}, kind="k", spread=spread)
        assert payload["spread"] == {"kernel": 0.07}
        assert payload["spread"] is not spread

    def test_reserved_keys_cover_the_envelope(self):
        assert RESERVED_KEYS == frozenset(ENVELOPE_KEYS)

    def test_results_preserved_untouched(self):
        results = {"fill": {"ns_per_op": 81.5}, "access": {"ns_per_op": 44.0}}
        payload = bench_payload(results, kind="k")
        for key, value in results.items():
            assert payload[key] == value

    def test_input_not_mutated(self):
        results = {"a": 1}
        bench_payload(results, kind="k")
        assert results == {"a": 1}

    def test_reserved_key_collision_rejected(self):
        for key in sorted(RESERVED_KEYS):
            with pytest.raises(ValueError, match="reserved"):
                bench_payload({key: "clobber"}, kind="k")

    def test_nonpositive_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            bench_payload({"a": 1}, kind="k", repetitions=0)


class TestReader:
    def test_schema_2_passes_through(self):
        payload = bench_payload({"a": 1}, kind="k", repetitions=5)
        back = read_bench_payload(payload)
        assert back == payload
        assert back is not payload  # a copy, not an alias

    def test_unknown_schema_rejected(self):
        for schema in (0, 1, 3, "2", None):
            with pytest.raises(ValueError, match="schema"):
                read_bench_payload({"schema": schema, "kind": "k"})

    def test_bench_results_strips_envelope(self):
        payload = bench_payload(
            {"kernel": {"best_s": 0.1}}, kind="k", repetitions=5
        )
        assert bench_results(payload) == {"kernel": {"best_s": 0.1}}


class TestWriter:
    def test_roundtrip(self, tmp_path):
        path = write_bench_json(
            tmp_path / "BENCH_test.json",
            {"kernel": 1},
            kind="core_model_bench",
            repetitions=5,
            spread={"kernel": 0.02},
        )
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2
        assert doc["kind"] == "core_model_bench"
        assert doc["kernel"] == 1
        assert doc["repetitions"] == 5
        assert doc["spread"] == {"kernel": 0.02}
        assert set(doc["host"]) == {"python", "implementation", "platform", "machine"}

    def test_read_bench_json_roundtrip(self, tmp_path):
        written = write_bench_json(
            tmp_path / "b.json", {"k": [1, 2]}, kind="k", repetitions=5
        )
        doc = read_bench_json(written)
        assert doc["k"] == [1, 2]
        assert doc["schema"] == 2

    def test_trailing_newline(self, tmp_path):
        path = write_bench_json(tmp_path / "b.json", {}, kind="k")
        assert path.read_text().endswith("\n")
