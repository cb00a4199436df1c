"""The metrics registry: counters, gauges and histograms with labels.

The paper's method is correlating sampled counters from independent
tools (hpmstat, vmstat, verbosegc, tprof); this module is the
reproduction's own equivalent for *itself* — every layer of the
simulator can record what it did into one :class:`MetricsRegistry`,
and the conformance gate (:mod:`repro.conformance`) and run manifests
(:mod:`repro.obs.manifest`) read the registry back.

Design constraints, in order:

1. **Zero cost when disabled.**  Nothing here is consulted unless an
   observability session is active (:mod:`repro.obs`); instrumented
   call sites guard on that before touching a registry.
2. **No interference with the science.**  Metrics only *read* simulator
   state; they never draw from an RNG stream and never perturb float
   accumulation order, so an instrumented run's scientific outputs are
   bit-identical to an uninstrumented one (asserted by the determinism
   tests).
3. **Deterministic snapshots.**  ``snapshot()`` sorts keys, so two runs
   of the same config serialize identically.

Metric identity is ``(name, labels)`` where labels is a tuple of
``(key, value)`` pairs — the usual label-set model, e.g.
``sim.gc.pause_ms{scope=sut}`` vs ``...{scope=cluster,blade=1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, object]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_metric_name(name: str, labels: LabelPairs) -> str:
    """``name{k=v,...}`` — the canonical textual form."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    labels: LabelPairs = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value; remembers its extremes."""

    name: str
    labels: LabelPairs = ()
    value: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.updates += 1


@dataclass
class Histogram:
    """Sum/count/min/max plus fixed-boundary bucket counts.

    Buckets are cumulative-style upper bounds (like Prometheus); a
    value lands in the first bucket whose bound is >= the value, and
    anything beyond the last bound is counted in ``overflow``.
    """

    name: str
    labels: LabelPairs = ()
    bounds: Tuple[float, ...] = ()
    bucket_counts: List[int] = field(default_factory=list)
    overflow: int = 0
    count: int = 0
    total: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        if tuple(self.bounds) != tuple(sorted(self.bounds)):
            raise ValueError("histogram bounds must be sorted")
        if not self.bucket_counts:
            self.bucket_counts = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


#: Default histogram bounds, a coarse log scale: fine enough to see a
#: distribution's shape, small enough to snapshot cheaply.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0
)


class MetricsRegistry:
    """Holds every metric of one observability session.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call for a ``(name, labels)`` pair creates the instrument, later
    calls return the same object — call sites can therefore be written
    without set-up ceremony.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}

    # ------------------------------------------------------------------
    # Get-or-create
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        bounds: Tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, key[1], bounds=bounds
            )
        return instrument

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def value(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Optional[float]:
        """Counter or gauge value for ``(name, labels)``; None if unset."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready dump of every instrument."""
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), c in sorted(self._counters.items()):
            out["counters"][render_metric_name(name, labels)] = c.value
        for (name, labels), g in sorted(self._gauges.items()):
            out["gauges"][render_metric_name(name, labels)] = {
                "value": g.value,
                "min": None if g.updates == 0 else g.min_value,
                "max": None if g.updates == 0 else g.max_value,
                "updates": g.updates,
            }
        for (name, labels), h in sorted(self._histograms.items()):
            out["histograms"][render_metric_name(name, labels)] = {
                "count": h.count,
                "sum": h.total,
                "mean": h.mean,
                "min": None if h.count == 0 else h.min_value,
                "max": None if h.count == 0 else h.max_value,
                "bounds": list(h.bounds),
                "buckets": list(h.bucket_counts),
                "overflow": h.overflow,
            }
        return out

    def snapshot_delta(self, earlier: Dict[str, object]) -> Dict[str, object]:
        """``snapshot_delta(earlier, self.snapshot())`` as a method."""
        return snapshot_delta(earlier, self.snapshot())

    def render_lines(self) -> List[str]:
        """A flat, sorted, human-readable dump."""
        lines: List[str] = []
        for (name, labels), c in sorted(self._counters.items()):
            lines.append(f"{render_metric_name(name, labels)} = {c.value:g}")
        for (name, labels), g in sorted(self._gauges.items()):
            lines.append(
                f"{render_metric_name(name, labels)} = {g.value:g} "
                f"(min {g.min_value:g}, max {g.max_value:g})"
            )
        for (name, labels), h in sorted(self._histograms.items()):
            lines.append(
                f"{render_metric_name(name, labels)}: n={h.count} "
                f"mean={h.mean:g} min={0 if h.count == 0 else h.min_value:g} "
                f"max={0 if h.count == 0 else h.max_value:g}"
            )
        return lines


def snapshot_delta(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, object]:
    """Difference two :meth:`MetricsRegistry.snapshot` dicts.

    Returns a snapshot-shaped dict describing what happened *between*
    the two captures, so windowed reporting (objprof) stops
    hand-diffing registries:

    * ``counters``: ``after - before`` per metric (union of keys, a
      missing side counts as 0);
    * ``gauges``: the ``after`` value plus a ``delta`` vs. before;
    * ``histograms``: count/sum/bucket/overflow differences, with the
      ``after`` bounds.

    Both arguments must come from ``snapshot()`` (or this function);
    histograms whose bounds changed between captures raise.
    """
    out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_c = before.get("counters", {})
    after_c = after.get("counters", {})
    for key in sorted(set(before_c) | set(after_c)):
        out["counters"][key] = after_c.get(key, 0.0) - before_c.get(key, 0.0)
    before_g = before.get("gauges", {})
    after_g = after.get("gauges", {})
    for key in sorted(set(before_g) | set(after_g)):
        a = after_g.get(key)
        b = before_g.get(key)
        a_val = a["value"] if a is not None else 0.0
        b_val = b["value"] if b is not None else 0.0
        out["gauges"][key] = {
            "value": a_val,
            "delta": a_val - b_val,
            "updates": (a["updates"] if a else 0) - (b["updates"] if b else 0),
        }
    before_h = before.get("histograms", {})
    after_h = after.get("histograms", {})
    for key in sorted(set(before_h) | set(after_h)):
        a = after_h.get(key)
        b = before_h.get(key)
        if a is not None and b is not None and a["bounds"] != b["bounds"]:
            raise ValueError(
                f"histogram {key!r} changed bounds between snapshots"
            )
        bounds = (a or b)["bounds"]
        a_buckets = a["buckets"] if a else [0] * len(bounds)
        b_buckets = b["buckets"] if b else [0] * len(bounds)
        count = (a["count"] if a else 0) - (b["count"] if b else 0)
        total = (a["sum"] if a else 0.0) - (b["sum"] if b else 0.0)
        out["histograms"][key] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "bounds": list(bounds),
            "buckets": [x - y for x, y in zip(a_buckets, b_buckets)],
            "overflow": (a["overflow"] if a else 0) - (b["overflow"] if b else 0),
        }
    return out
