"""Shared HPM sampling for the time-series figures (5-8).

Figures 5 through 8 all plot per-interval counter ratios over a stretch
of the run and contrast behavior during GC pauses against mutator
execution.  :func:`sample_segment` produces exactly that: a block of
consecutive mutator-era windows plus the windows covering a few GC
pauses (located from the GC log, as the paper does by exploiting the
collector's predictable 25-28 s period), with each sample tagged by the
fraction of the window spent in GC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.characterization import Characterization
from repro.hpm.counters import CounterSnapshot


@dataclass(frozen=True)
class TaggedWindow:
    """One sampled window plus its GC share."""

    window_index: int
    snapshot: CounterSnapshot
    gc_fraction: float


@dataclass
class Segment:
    """The sampled windows of one time-series figure."""

    windows: List[TaggedWindow]

    @property
    def mutator(self) -> List[TaggedWindow]:
        return [w for w in self.windows if w.gc_fraction < 0.5]

    @property
    def gc(self) -> List[TaggedWindow]:
        return [w for w in self.windows if w.gc_fraction >= 0.5]

    def values(self, fn) -> List[float]:
        return [fn(w.snapshot) for w in self.windows]

    def gc_fractions(self) -> List[float]:
        return [w.gc_fraction for w in self.windows]

    def mean(self, fn, windows: Optional[Sequence[TaggedWindow]] = None) -> float:
        pool = list(windows) if windows is not None else self.windows
        if not pool:
            raise ValueError("no windows in pool")
        agg = pool[0].snapshot
        for w in pool[1:]:
            agg = agg.merged_with(w.snapshot)
        return fn(agg)


def sample_segment(
    study: Characterization,
    n_mutator: int = 80,
    n_gc_events: int = 3,
    start: int = 0,
) -> Segment:
    """Sample ``n_mutator`` consecutive windows plus GC-pause windows."""
    study.ensure_warm()
    schedule = study.core.schedule
    indices = list(range(start, start + n_mutator))
    gc_indices = [
        i
        for i in schedule.gc_window_indices(max_events=n_gc_events)
        if i not in set(indices)
    ]
    windows: List[TaggedWindow] = []
    for idx in indices + gc_indices:
        descriptor = schedule.descriptor_for(idx)
        snapshot = study.core.execute_window(idx)
        windows.append(
            TaggedWindow(
                window_index=idx,
                snapshot=snapshot,
                gc_fraction=descriptor.gc_fraction,
            )
        )
    return Segment(windows=windows)
