"""Golden-band tests: every headline figure of the paper, as a test.

The band table in :mod:`repro.conformance` is evaluated at the
standard benchmark scale (seed 2007) and each band becomes one test
case.  Bands waived for the EXPERIMENTS.md known gaps are
``xfail(strict=True)`` — if a gap silently closes, the stale waiver
fails the suite just as a regression on a clean band would, keeping
the test tier and the ``repro conform`` CLI gate in lockstep.

The cheap campaign (one workload run + 60 HPM windows + the idle-CPI
probe) is tier-1; the Figure 10 correlation campaign and the
large-pages ablation ride in the ``slow`` tier.
"""

import ast
import inspect
import math
import textwrap
from pathlib import Path

import pytest

from repro.conformance import (
    BANDS,
    CHEAP,
    CORRELATION,
    PAGES,
    Band,
    BandResult,
    ConformanceReport,
    bands_for,
    evaluate,
    known_gap_waivers,
    measure_cheap,
    measure_correlation,
    measure_pages,
)
from repro.experiments.common import bench_config, quick_config

ROOT = Path(__file__).resolve().parents[2]


def band_params(cost):
    """One pytest param per band; waived bands are strict xfails."""
    params = []
    for band in bands_for(cost):
        marks = ()
        if band.waiver is not None:
            marks = pytest.mark.xfail(
                strict=True,
                reason=f"EXPERIMENTS.md known gap {band.waiver}: "
                f"{band.description}",
            )
        params.append(pytest.param(band, id=band.key, marks=marks))
    return params


def assert_waivers_explained(cost, values):
    """Each waived band misses its interval inside its gap's range (a
    strict xfail alone would also swallow a value outside that range)."""
    for band in bands_for(cost):
        if band.waiver is not None:
            assert band.explained(values[band.key]), (band.key, values[band.key])


@pytest.fixture(scope="module")
def config():
    return bench_config(seed=2007)


@pytest.fixture(scope="module")
def cheap_values(config):
    return measure_cheap(config, hw_windows=60)


@pytest.mark.parametrize("band", band_params(CHEAP))
def test_cheap_band(band, cheap_values):
    value = cheap_values[band.key]
    assert band.lo <= value <= band.hi, (
        f"{band.key} = {value:.4g} outside [{band.lo:g}, {band.hi:g}] "
        f"({band.description}; {band.paper_ref})"
    )


@pytest.mark.slow
class TestCorrelationBands:
    """Figure 10's shared-core campaign at its own defaults."""

    @pytest.fixture(scope="class")
    def corr_values(self, config):
        return measure_correlation(config)

    @pytest.mark.parametrize("band", band_params(CORRELATION))
    def test_band(self, band, corr_values):
        value = corr_values[band.key]
        assert band.lo <= value <= band.hi, (
            f"{band.key} = {value:.4g} outside [{band.lo:g}, {band.hi:g}] "
            f"({band.description}; {band.paper_ref})"
        )

    def test_waivers_explained(self, corr_values):
        assert_waivers_explained(CORRELATION, corr_values)


@pytest.mark.slow
class TestPagesBands:
    """The Section 4.2.2 large-pages ablation."""

    @pytest.fixture(scope="class")
    def pages_values(self, config):
        return measure_pages(config)

    @pytest.mark.parametrize("band", band_params(PAGES))
    def test_band(self, band, pages_values):
        value = pages_values[band.key]
        assert band.lo <= value <= band.hi

    def test_waivers_explained(self, pages_values):
        assert_waivers_explained(PAGES, pages_values)


class TestGateOnRealMeasurements:
    """The ``repro conform`` verdict itself, on the cheap campaign."""

    @pytest.fixture(scope="class")
    def report(self, config, cheap_values):
        return evaluate(config, include_slow=False, measurements=cheap_values)

    def test_gate_passes(self, report):
        assert report.passed, "\n".join(report.render_lines())

    def test_exactly_the_cheap_waivers_are_waived(self, report):
        waived = {r.band.waiver for r in report.waived()}
        expected = {b.waiver for b in bands_for(CHEAP) if b.waiver is not None}
        assert waived == expected

    def test_no_failures_or_stale_waivers(self, report):
        assert report.failures() == []
        assert report.stale_waivers() == []

    def test_slow_campaigns_listed_as_skipped(self, report):
        assert report.skipped_costs == [CORRELATION, PAGES]
        judged = {r.band.key for r in report.results}
        assert judged == {b.key for b in bands_for(CHEAP)}

    def test_json_document(self, report):
        doc = report.to_json_dict()
        assert doc["schema"] == "repro_conformance/1"
        assert doc["passed"] is True
        assert doc["seed"] == 2007
        assert len(doc["bands"]) == len(bands_for(CHEAP))


def test_quick_scale_gate_passes():
    """The cheap campaign at quick scale: the Figure 4 warm-head bands
    judge the 40-method head by their scaled bounds."""
    config = quick_config(2007)
    report = evaluate(config, include_slow=False)
    assert report.passed, "\n".join(report.render_lines())
    half = next(
        r for r in report.results if r.band.key == "profile.methods_for_half_jited"
    )
    assert (half.band.lo, half.band.hi) == (32.0, 50.0)


class TestBandTable:
    """Static sanity of the declarative table."""

    def test_keys_unique(self):
        keys = [b.key for b in BANDS]
        assert len(keys) == len(set(keys))

    def test_intervals_well_formed(self):
        for b in BANDS:
            assert b.lo <= b.hi, b.key
            assert b.description and b.claim, b.key
            # Only extension bands go without a paper reference, and
            # the gate and the waivers judge paper claims alone.
            assert b.paper_ref or (b.cost is None and b.waiver is None), b.key
            # A waiver bounds what its gap explains, on both sides.
            assert (b.waiver is None) == (b.gap_range is None), b.key

    def test_costs_known(self):
        assert {b.cost for b in BANDS} == {None, CHEAP, CORRELATION, PAGES}
        assert len([b for b in BANDS if b.cost is not None]) == 32

    def test_waivers_are_exactly_the_known_gaps(self):
        waivers = known_gap_waivers()
        assert set(waivers) == {1, 2, 3, 4, 6}
        assert waivers[2] == ("hw.target_mispredict_rate",)
        assert waivers[1] == ("corr.r_cond_mispredict_vs_cpi",)
        assert waivers[4] == ("corr.r_cond_mispredict_vs_branches",)
        assert waivers[3] == ("pages.dtlb_hit_gain",)
        assert waivers[6] == ("baselines.jbb_jvm_jit_share",)

    def test_experiments_md_lists_every_waived_band(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for gap, keys in known_gap_waivers().items():
            for key in keys:
                assert f"| {gap} | `{key}` |" in text, key

    def test_every_band_is_read(self):
        """Each band is judged by an experiment row or measured by a
        conform campaign, and every key an experiment names exists."""
        keys = {b.key for b in BANDS}
        assert all(key.count(".") == 1 for key in keys)
        namespaces = {key.split(".")[0] for key in keys}
        row_keys = set()
        for path in (ROOT / "src/repro/experiments").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.count(".") == 1
                    and node.value.split(".")[0] in namespaces
                ):
                    row_keys.add(node.value)
        campaign_keys = set()
        for measure in (measure_cheap, measure_correlation, measure_pages):
            source = textwrap.dedent(inspect.getsource(measure))
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Dict):
                    campaign_keys |= {k.value for k in node.keys}
        assert row_keys <= keys, row_keys - keys
        assert keys == row_keys | campaign_keys, keys - row_keys - campaign_keys
        assert campaign_keys == {b.key for b in BANDS if b.cost is not None}


class TestStrictWaiverSemantics:
    """The four statuses and the verdict they roll up to."""

    CLEAN = Band("k", "d", "ref", 0.0, 1.0)
    WAIVED = Band("k2", "d", "ref", 0.0, 1.0, waiver=9, gap_range=(0.0, 2.0))

    def test_statuses(self):
        assert BandResult(self.CLEAN, 0.5).status == "pass"
        assert BandResult(self.CLEAN, 1.5).status == "FAIL"
        assert BandResult(self.WAIVED, 1.5).status == "xfail"
        assert BandResult(self.WAIVED, 0.5).status == "XPASS"
        assert BandResult(self.WAIVED, 2.5).status == "FAIL"

    def test_ok(self):
        assert BandResult(self.CLEAN, 0.5).ok
        assert not BandResult(self.CLEAN, 1.5).ok
        assert BandResult(self.WAIVED, 1.5).ok
        assert not BandResult(self.WAIVED, 0.5).ok
        assert not BandResult(self.WAIVED, 2.5).ok

    def _report(self, config, values):
        return evaluate(config, include_slow=False, measurements=values)

    def test_stale_waiver_fails_the_gate(self, config):
        values = {b.key: self._mid(b) for b in bands_for(CHEAP)}
        # Every band in-band: the waived band becomes a stale waiver.
        report = self._report(config, values)
        assert not report.passed
        assert [r.band.waiver for r in report.stale_waivers()] == [2]

    def test_regression_fails_the_gate(self, config):
        values = {
            b.key: (self._mid(b) if b.waiver is None else self._gap(b))
            for b in bands_for(CHEAP)
        }
        values["hw.cpi"] = 99.0
        report = self._report(config, values)
        assert not report.passed
        assert [r.band.key for r in report.failures()] == ["hw.cpi"]

    def test_all_expected_shapes_pass(self, config):
        values = {
            b.key: (self._mid(b) if b.waiver is None else self._gap(b))
            for b in bands_for(CHEAP)
        }
        report = self._report(config, values)
        assert report.passed
        lines = "\n".join(report.render_lines())
        assert "PASS" in lines and "known gap 2" in lines

    @staticmethod
    def _gap(band):
        """A value just above a waived band that its gap explains."""
        value = math.nextafter(band.hi, math.inf)
        assert band.explained(value), band.key
        return value

    @staticmethod
    def _mid(band):
        if math.isinf(band.lo) or math.isinf(band.hi):
            raise AssertionError("bands must be finite")
        return (band.lo + band.hi) / 2.0
