"""Tests for the full-reproduction sweep driver."""

import json

import pytest

from repro.experiments.reproduce_all import (
    CATALOG,
    SWEEP_STATS_SCHEMA,
    ReproductionRecord,
    load_stats_dict,
    run,
)
from tests.conftest import make_quick_config


class TestCatalog:
    def test_covers_every_paper_figure(self):
        titles = [title for title, _, _ in CATALOG]
        for n in range(2, 11):
            assert any(f"Figure {n}" == t for t in titles)

    def test_module_names_resolve(self):
        import importlib

        for _, module_name, _ in CATALOG:
            module = importlib.import_module(
                f"repro.experiments.{module_name}"
            )
            assert hasattr(module, "run")


class TestSubsetRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run(
            make_quick_config(),
            only=["fig03_gc", "fig04_profile", "tab_locking"],
        )

    def test_records_match_subset(self, result):
        assert set(result.records) == {"fig03_gc", "fig04_profile", "tab_locking"}

    def test_row_accounting(self, result):
        assert result.rows_total == sum(
            r.rows_total for r in result.records.values()
        )
        assert len(result.rows_off) == sum(
            len(r.rows_off) for r in result.records.values()
        )

    def test_summary_renders(self, result):
        text = "\n".join(result.summary_lines())
        assert "FULL REPRODUCTION SWEEP" in text
        assert "Figure 3" in text

    def test_full_render_includes_experiment_bodies(self, result):
        text = "\n".join(result.render_lines())
        assert "Garbage Collection Statistics" in text
        assert "Locking" in text

    def test_summary_reports_cache_and_jobs(self, result):
        text = "\n".join(result.summary_lines())
        assert "run cache:" in text
        assert "jobs: 1" in text


class TestOnlyValidation:
    def test_unknown_module_raises_with_valid_names(self):
        with pytest.raises(ValueError) as err:
            run(make_quick_config(), only=["fig03_gc", "fig99_nope"])
        message = str(err.value)
        assert "fig99_nope" in message
        # The error teaches the valid vocabulary.
        assert "fig03_gc" in message and "exp_resilience" in message

    def test_typo_does_not_yield_clean_empty_sweep(self):
        with pytest.raises(ValueError):
            run(make_quick_config(), only=["fig03-gc"])


class TestStatsSchema:
    @pytest.fixture(scope="class")
    def result(self):
        return run(make_quick_config(), only=["fig03_gc"])

    def test_stats_carry_schema_and_supervision_fields(self, result):
        stats = result.stats_dict()
        assert stats["schema"] == SWEEP_STATS_SCHEMA
        assert stats["resumed"] == []
        assert stats["pool_failures"] == 0
        assert stats["degraded"] is False
        entry = stats["per_experiment"]["fig03_gc"]
        assert entry["attempts"] == 1
        assert entry["retries"] == 0
        assert entry["timed_out"] == 0

    def test_round_trips_through_json(self, result):
        stats = result.stats_dict()
        reloaded = load_stats_dict(json.loads(json.dumps(stats)))
        assert reloaded == stats

    @pytest.mark.parametrize("schema", [None, 2, 3, 99])
    def test_unknown_schema_rejected(self, schema):
        # Only the current schema reads back; v1 (no key), v2 and v3
        # are not migrated.
        with pytest.raises(ValueError, match="schema"):
            load_stats_dict({"schema": schema, "per_experiment": {}})


class TestJournalRecordRoundTrip:
    def test_lossless(self):
        record = ReproductionRecord(
            title="Figure 3",
            module="fig03_gc",
            seconds=1.25,
            rows_total=5,
            rows_off=["minor GC count"],
            lines=["line one", "line two"],
            cache_hits=2,
            cache_misses=1,
            attempts=3,
            retries=2,
            timed_out=1,
        )
        doc = json.loads(json.dumps(record.to_journal_dict()))
        assert ReproductionRecord.from_journal_dict(doc) == record

    def test_defaults_for_pre_supervisor_journal_lines(self):
        doc = {
            "title": "Figure 3",
            "module": "fig03_gc",
            "seconds": 1.0,
            "rows_total": 5,
            "rows_off": [],
            "lines": ["body"],
        }
        record = ReproductionRecord.from_journal_dict(doc)
        assert record.attempts == 1
        assert record.retries == 0
        assert record.timed_out == 0


@pytest.mark.slow
class TestParallelSweep:
    """jobs=N must be a pure wall-clock optimization."""

    SUBSET = ["fig02_throughput", "fig03_gc", "tab_utilization"]

    @pytest.fixture(scope="class")
    def serial(self):
        return run(make_quick_config(), only=self.SUBSET)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run(make_quick_config(), only=self.SUBSET, jobs=4)

    def test_report_byte_identical_to_serial(self, serial, parallel):
        assert parallel.render_lines(include_timing=False) == serial.render_lines(
            include_timing=False
        )

    def test_records_in_catalog_order(self, serial, parallel):
        assert list(parallel.records) == list(serial.records) == self.SUBSET

    def test_rows_accounting_matches(self, serial, parallel):
        assert parallel.rows_total == serial.rows_total
        assert parallel.rows_off == serial.rows_off


#: The seven SUT-heavy experiments the end-to-end benchmark's two sweep
#: workloads run (``SWEEP_MODULES`` in ``e2ebench/call.py``, copied
#: rather than imported so the suite does not depend on the harness).
SWEEP_MODULES = [
    "fig02_throughput",
    "fig03_gc",
    "tab_utilization",
    "tab_baselines",
    "exp_tuning",
    "exp_heap_sweep",
    "exp_resilience",
]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 3, 104])
def test_sweep_rows_hold_at_other_seeds(seed):
    """The benchmark sweep's rows hold beyond seed 2007.

    At these seeds the fault-free run ends with an operation still in
    flight, which availability must count neither as served nor lost.
    """
    result = run(make_quick_config(seed), only=SWEEP_MODULES)
    assert result.rows_total == 39
    assert result.rows_off == []
