"""Tests for the object-centric profiling experiment
(:mod:`repro.experiments.exp_objprof`).

The acceptance criteria of the objprof layer, end to end: exact byte
reconciliation, every sampled miss attributed, a golden-stable top-N
ranking under the fixed seed, and what-if predictions whose direction
a real re-simulation confirms.
"""

import json

import pytest

from repro.experiments import exp_objprof
from repro.obs import objprof
from tests.conftest import make_quick_config

#: The quick-config seed-2007 ranking.  Pinned: the ranking is a
#: deterministic function of the seed, and downstream what-ifs key off
#: the top entry, so silent reshuffles must fail loudly.
GOLDEN_RANKING = [
    "session_state",
    "cache_entries",
    "jdbc_rows",
    "string_churn",
    "collection_temp",
]


@pytest.fixture(scope="module")
def profile_result():
    return exp_objprof.run(make_quick_config(), hw_windows=12, validate=False)


class TestProfileRun:
    def test_ledger_reconciles_exactly(self, profile_result):
        assert profile_result.reconciliation == {
            "fresh": True, "dark": True, "live": True
        }

    def test_every_sampled_miss_is_charged(self, profile_result):
        charged = profile_result.profile.total(objprof.SLOT_LD_MISS)
        assert charged >= profile_result.sampled_ld_misses > 0

    def test_golden_top_ranking(self, profile_result):
        top = profile_result.profile.top_inefficient(5)
        assert [r.site.name for r in top] == GOLDEN_RANKING

    def test_ranking_repeatable_under_fixed_seed(self, profile_result):
        again = exp_objprof.run(
            make_quick_config(), hw_windows=12, validate=False
        )
        assert again.profile.to_dict(5) == profile_result.profile.to_dict(5)

    def test_windowed_delta_counts_second_half(self, profile_result):
        counters = profile_result.windowed["counters"]
        ld_keys = [k for k in counters if k.startswith("objprof.site.ld_miss")]
        assert ld_keys
        assert all(counters[k] >= 0 for k in ld_keys)
        assert sum(counters[k] for k in ld_keys) > 0

    def test_estimates_without_validation(self, profile_result):
        assert set(profile_result.estimates) == {
            "shrink-top-site", "segregate-churn"
        }
        assert profile_result.outcomes == {}
        # Both enhancements are predicted to help (negative CPI delta).
        for est in profile_result.estimates.values():
            assert est.cpi_delta < 0

    def test_render_and_dict_round(self, profile_result):
        lines = profile_result.render_lines()
        text = "\n".join(lines)
        assert "Object-Centric Heap Profile" in text
        assert "session_state" in text
        assert "[ext]" in text and "[OFF]" not in text
        doc = profile_result.to_dict()
        assert doc["ranking"] == GOLDEN_RANKING
        assert doc["reconciliation"] == {
            "fresh": True, "dark": True, "live": True
        }
        json.dumps(doc)  # JSON-serializable for the CLI --json path


class TestWhatIfValidation:
    """The DJXPerf claim: the object-centric prediction points the
    same way a real re-simulation of the enhanced config moves."""

    @pytest.fixture(scope="class")
    def validated(self):
        # CPI deltas of a few hundredths need more windows than a site
        # ranking does; validate_windows decouples the two budgets.
        return exp_objprof.run(
            make_quick_config(),
            hw_windows=12,
            top_n=3,
            validate=True,
            validate_windows=80,
        )

    def test_shrink_top_site_direction_confirmed(self, validated):
        outcome = validated.outcomes["shrink-top-site"]
        assert outcome.estimate.cpi_delta < 0
        assert outcome.simulated_delta < 0
        assert outcome.direction_agrees

    def test_all_rows_pass(self, validated):
        rows = validated.rows()
        assert len(rows) == 2 + len(validated.outcomes)
        assert all(row.ok for row in rows)

    def test_dict_carries_simulated_deltas(self, validated):
        doc = validated.to_dict()
        whatif = doc["whatif"]["shrink-top-site"]
        assert whatif["simulated_cpi_delta"] is not None
        assert whatif["direction_agrees"] is True
