"""Statistics primitives used by the characterization methodology.

The paper's core analytical tool is the Pearson product-moment
correlation between sampled hardware events and CPI (Section 4.3).  The
formula implemented by :func:`pearson` is exactly the one printed in the
paper:

.. math::

    r = \\frac{\\Sigma(x-\\bar{x})(y-\\bar{y})}
             {\\sqrt{\\Sigma(x-\\bar{x})^2\\,\\Sigma(y-\\bar{y})^2}}

This module also provides the profile-shape helper
:func:`shifted_zipf_weights` used to synthesize "flat" method profiles,
plus small summary-statistics utilities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length samples.

    Returns a value in ``[-1, 1]``.  If either sample has zero variance
    the correlation is undefined; we return ``0.0`` in that case, which
    matches how the paper treats flat counter series (no co-variation,
    no evidence of a relationship).

    Raises:
        ValueError: if the samples differ in length or have fewer than
            two points.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("correlation needs at least two samples")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx <= 0.0 or syy <= 0.0:
        return 0.0
    # sqrt the factors separately: the product can underflow to zero
    # for tiny variances even when both factors are positive.
    denom = math.sqrt(sxx) * math.sqrt(syy)
    if denom == 0.0:
        return 0.0
    r = sxy / denom
    # Guard against floating point overshoot.
    return max(-1.0, min(1.0, r))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) using linear interpolation.

    The benchmark's pass criteria are phrased as percentiles ("90% of
    web requests under 2 seconds"), so this is the definition the
    workload metrics use.  The sample is not sorted:
    ``numpy.partition`` selects the order statistic at ``low``, and the
    next one is the least value above it (``fmin`` passes over NaNs,
    which the partition puts last).  Partitioning at both ranks takes a
    path several times slower.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    rank = (q / 100.0) * (n - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    selected = np.partition(np.asarray(values, dtype=float), low)
    lo = float(selected[low])
    hi = float(np.fmin.reduce(selected[low + 1 :])) if high > low else lo
    if lo == hi:
        return lo
    frac = rank - low
    # The blend can round past its neighbours (lo=-999233.0,
    # hi=-999232.0, frac=3e-14 gives -999233.0000000001); clamp it back
    # between them.  An in-range result is returned unchanged.
    return min(max(lo * (1.0 - frac) + hi * frac, lo), hi)


def shifted_zipf_weights(n: int, shift: float = 0.0, exponent: float = 1.0) -> List[float]:
    """Normalized weights ``w_i ∝ (i + shift)^-exponent`` for ``i=1..n``.

    A plain Zipf distribution concentrates far too much weight in the
    head to model the paper's *flat* method profile (hottest method
    <1% of time).  Adding a ``shift`` flattens the head while keeping a
    long, slowly decaying tail — the shape tprof reported for jas2004.
    """
    if n <= 0:
        raise ValueError("need at least one weight")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    raw = [(i + shift) ** -exponent for i in range(1, n + 1)]
    total = math.fsum(raw)
    return [w / total for w in raw]


@dataclass(frozen=True)
class MannWhitneyResult:
    """One-sided Mann-Whitney U test of ``ys`` stochastically > ``xs``."""

    u: float
    #: One-sided p-value for H1: values in ``ys`` tend to be larger
    #: than values in ``xs`` (normal approximation, tie-corrected).
    p_greater: float
    n_x: int
    n_y: int


def mann_whitney_u(xs: Sequence[float], ys: Sequence[float]) -> MannWhitneyResult:
    """Mann-Whitney U with a one-sided normal-approximation p-value.

    Used by the perf-regression gate (:mod:`repro.perf.gate`) to ask
    whether the *new* repetition sample ``ys`` is stochastically larger
    (slower) than the *baseline* sample ``xs`` — a distribution-aware
    comparison that doesn't assume normal timing noise.  Ranks are
    midranked on ties and the variance gets the standard tie
    correction; a continuity correction keeps the small-n p-values
    conservative.

    Raises:
        ValueError: if either sample is empty.
    """
    if not xs or not ys:
        raise ValueError("mann_whitney_u needs two non-empty samples")
    n_x, n_y = len(xs), len(ys)
    pooled = [(v, 0) for v in xs] + [(v, 1) for v in ys]
    pooled.sort(key=lambda pair: pair[0])
    # Midranks over the pooled sample.
    ranks = [0.0] * len(pooled)
    i = 0
    tie_sizes: List[int] = []
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[k] = midrank
        if j > i:
            tie_sizes.append(j - i + 1)
        i = j + 1
    rank_sum_y = math.fsum(r for r, (_, which) in zip(ranks, pooled) if which == 1)
    u_y = rank_sum_y - n_y * (n_y + 1) / 2.0
    mean_u = n_x * n_y / 2.0
    n = n_x + n_y
    tie_term = math.fsum(t ** 3 - t for t in tie_sizes)
    var_u = n_x * n_y / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        # All values identical: no evidence either way.
        return MannWhitneyResult(u=u_y, p_greater=1.0, n_x=n_x, n_y=n_y)
    z = (u_y - mean_u - 0.5) / math.sqrt(var_u)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return MannWhitneyResult(u=u_y, p_greater=p, n_x=n_x, n_y=n_y)


def bootstrap_ci_mean(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 2007,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean.

    Deterministic in ``seed`` (its own :class:`random.Random`; never
    touches the simulation RNG streams).  Used to report the
    uncertainty of small benchmark repetition samples without a
    normality assumption.
    """
    if not values:
        raise ValueError("bootstrap of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence out of range: {confidence}")
    n = len(values)
    if n == 1:
        return (values[0], values[0])
    rng = random.Random(seed)
    means = sorted(
        math.fsum(rng.choice(values) for _ in range(n)) / n
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    return (
        percentile(means, 100.0 * alpha),
        percentile(means, 100.0 * (1.0 - alpha)),
    )


def relative_spread(values: Sequence[float]) -> float:
    """``(max - min) / min`` of a positive sample; 0.0 for singletons.

    The repetition-noise figure recorded in schema-2 bench envelopes:
    how far apart the best and worst of the N timing repetitions were,
    relative to the best.
    """
    if not values:
        raise ValueError("relative_spread of empty sequence")
    lo = min(values)
    if lo <= 0.0:
        raise ValueError("relative_spread needs positive values")
    return (max(values) - lo) / lo


@dataclass
class SummaryStats:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over ``values`` (population std)."""
    if not values:
        raise ValueError("summarize of empty sequence")
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return SummaryStats(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )


class RunningStats:
    """Welford-style online mean/variance accumulator.

    Used by long-running simulations to summarize per-interval samples
    without retaining them all.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance of the observations seen so far."""
        if self.count == 0:
            raise ValueError("no observations")
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self.count == 0:
            raise ValueError("no observations")
        return self._max

    def snapshot(self) -> SummaryStats:
        """Freeze the accumulated statistics into a :class:`SummaryStats`."""
        return SummaryStats(
            count=self.count,
            mean=self.mean,
            std=self.std,
            minimum=self.minimum,
            maximum=self.maximum,
        )
