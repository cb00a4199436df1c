"""Tests for the statistics primitives, including the paper's
correlation formula."""

import math

import pytest
from hypothesis import example, given, strategies as st

from repro.util.stats import (
    RunningStats,
    ks_2samp,
    pearson,
    percentile,
    shifted_zipf_weights,
    summarize,
)


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [-3 * x for x in xs]) == pytest.approx(-1.0)

    def test_independent_data_is_weak(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8]
        ys = [5, 1, 4, 2, 6, 3, 8, 7]
        assert abs(pearson(xs, ys)) < 0.9

    def test_zero_variance_returns_zero(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0, 2.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
        st.floats(0.1, 100.0),
        st.floats(-1e3, 1e3),
    )
    def test_affine_invariance(self, xs, scale, shift):
        """r is invariant under positive affine transforms."""
        from hypothesis import assume

        # A (near-)constant sample is degenerate: scaling can turn an
        # exactly-zero variance into rounding dust and flip the
        # defined-as-zero result.
        assume(max(xs) - min(xs) > 1e-3 * (abs(max(xs)) + 1.0))
        ys = [x * 2.0 + 1.0 for x in xs]
        base = pearson(xs, ys)
        transformed = pearson([x * scale + shift for x in xs], ys)
        assert base == pytest.approx(transformed, abs=1e-6)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_bounded(self, xs):
        ys = list(reversed(xs))
        assert -1.0 <= pearson(xs, ys) <= 1.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p90_interpolates(self):
        values = list(range(1, 11))
        assert percentile(values, 90) == pytest.approx(9.1)

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_single_value(self):
        assert percentile([7.0], 90) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(0, 100))
    @example(values=[0.0, 0.0, -999232.0, -999233.0], q=1e-12)
    def test_within_range(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)


class TestShiftedZipf:
    def test_normalized(self):
        weights = shifted_zipf_weights(100, shift=30.0)
        assert math.fsum(weights) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = shifted_zipf_weights(50, shift=10.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_shift_flattens_head(self):
        sharp = shifted_zipf_weights(100, shift=0.0)
        flat = shifted_zipf_weights(100, shift=50.0)
        assert flat[0] < sharp[0]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shifted_zipf_weights(0)
        with pytest.raises(ValueError):
            shifted_zipf_weights(10, shift=-1.0)


class TestSummaries:
    def test_summarize_basics(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_running_stats_matches_batch(self):
        values = [1.5, -2.0, 7.25, 0.0, 3.5]
        rs = RunningStats()
        for v in values:
            rs.add(v)
        batch = summarize(values)
        assert rs.mean == pytest.approx(batch.mean)
        assert rs.std == pytest.approx(batch.std)
        assert rs.minimum == batch.minimum
        assert rs.maximum == batch.maximum

    def test_running_stats_empty_raises(self):
        with pytest.raises(ValueError):
            RunningStats().mean

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_running_stats_property(self, values):
        rs = RunningStats()
        for v in values:
            rs.add(v)
        assert rs.count == len(values)
        assert rs.minimum == min(values)
        assert rs.maximum == max(values)
        assert rs.variance >= 0.0


class TestKs2Samp:
    def test_identical_samples_have_zero_statistic(self):
        xs = [float(i) for i in range(40)]
        r = ks_2samp(xs, list(xs))
        assert r.statistic == 0.0
        assert r.p_value == pytest.approx(1.0)

    def test_disjoint_samples_rejected(self):
        xs = [float(i) for i in range(40)]
        ys = [float(i) + 1000.0 for i in range(40)]
        r = ks_2samp(xs, ys)
        assert r.statistic == pytest.approx(1.0)
        assert r.p_value < 1e-6

    def test_statistic_is_exact_for_known_case(self):
        # At v=4 the CDFs are 4/4 vs 1/4 -> D = 0.75 exactly.
        r = ks_2samp([1.0, 2.0, 3.0, 4.0], [2.5, 4.5, 5.0, 6.0])
        assert r.statistic == pytest.approx(0.75)
        assert r.n_x == r.n_y == 4

    def test_same_distribution_not_rejected(self):
        import random as _random

        rng = _random.Random(13)
        xs = [rng.gauss(0.0, 1.0) for _ in range(120)]
        ys = [rng.gauss(0.0, 1.0) for _ in range(120)]
        assert ks_2samp(xs, ys).p_value > 0.05

    def test_shifted_distribution_rejected(self):
        import random as _random

        rng = _random.Random(13)
        xs = [rng.gauss(0.0, 1.0) for _ in range(120)]
        ys = [rng.gauss(1.5, 1.0) for _ in range(120)]
        assert ks_2samp(xs, ys).p_value < 0.001

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ks_2samp([], [1.0])
        with pytest.raises(ValueError):
            ks_2samp([1.0], [])
