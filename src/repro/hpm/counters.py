"""Counter accumulation primitives.

A :class:`CounterBank` is what the CPU model increments while executing
a window; a :class:`CounterSnapshot` is the immutable result handed to
the sampling tool.  Snapshots also provide the derived ratios the paper
reports (CPI, speculation rate, per-instruction miss rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.hpm.events import EVENTS, EVENT_INDEX, N_EVENTS, Event

#: Template for zeroing a bank in place (sliced-copied, never mutated).
_ZEROS = (0,) * N_EVENTS


class CounterBank:
    """A mutable bank of hardware event counters.

    Kernel layout: counts live in :attr:`data`, a flat list of ints
    indexed by :data:`repro.hpm.events.EVENT_INDEX`.  The CPU model's
    hot loops bind ``data`` once and increment slots directly — the
    list identity is stable for the bank's lifetime (:meth:`reset`
    zeroes it in place), so such bindings stay valid across windows.
    The enum-keyed :meth:`add`/:meth:`value` API is unchanged for
    everything off the hot path.
    """

    __slots__ = ("data",)

    def __init__(self) -> None:
        self.data = [0] * N_EVENTS

    def add(self, event: Event, n: int = 1) -> None:
        """Increment ``event`` by ``n`` (``n`` may be any non-negative int)."""
        if n < 0:
            raise ValueError(f"negative increment for {event}: {n}")
        self.data[EVENT_INDEX[event]] += n

    def value(self, event: Event) -> int:
        return self.data[EVENT_INDEX[event]]

    def reset(self) -> None:
        self.data[:] = _ZEROS

    def snapshot(self) -> "CounterSnapshot":
        """Freeze the current counts into an immutable snapshot."""
        data = self.data
        return CounterSnapshot(
            counts={event: data[i] for i, event in enumerate(EVENTS)}
        )


@dataclass(frozen=True)
class CounterSnapshot:
    """Immutable event counts for one sampling window.

    The derived-ratio properties implement the definitions the paper
    uses in its figures; each one documents the paper's reference value
    for the tuned jas2004 system.
    """

    counts: Mapping[Event, int] = field(default_factory=dict)

    def __getitem__(self, event: Event) -> int:
        return self.counts.get(event, 0)

    def get(self, event: Event, default: int = 0) -> int:
        return self.counts.get(event, default)

    def restricted_to(self, events: Iterable[Event]) -> "CounterSnapshot":
        """A snapshot exposing only ``events`` — what one HPM group sees."""
        allowed = set(events)
        return CounterSnapshot(
            counts={e: c for e, c in self.counts.items() if e in allowed}
        )

    # ------------------------------------------------------------------
    # Derived ratios (Figure 5 and friends)
    # ------------------------------------------------------------------
    def _ratio(self, num: Event, den: Event) -> float:
        d = self[den]
        return self[num] / d if d else 0.0

    @property
    def instructions(self) -> int:
        return self[Event.PM_INST_CMPL]

    @property
    def cycles(self) -> int:
        return self[Event.PM_CYC]

    @property
    def cpi(self) -> float:
        """Cycles per completed instruction (~3 on the loaded system)."""
        return self._ratio(Event.PM_CYC, Event.PM_INST_CMPL)

    @property
    def speculation_rate(self) -> float:
        """Instructions dispatched per instruction completed (~2.2-2.5)."""
        return self._ratio(Event.PM_INST_DISP, Event.PM_INST_CMPL)

    @property
    def l1d_load_miss_rate(self) -> float:
        """L1D load misses per load (~1 in 12 for jas2004)."""
        return self._ratio(Event.PM_LD_MISS_L1, Event.PM_LD_REF_L1)

    @property
    def l1d_store_miss_rate(self) -> float:
        """L1D store misses per store (~1 in 5 for jas2004)."""
        return self._ratio(Event.PM_ST_MISS_L1, Event.PM_ST_REF_L1)

    @property
    def l1d_miss_rate(self) -> float:
        """Combined L1D miss rate (~14% for jas2004)."""
        refs = self[Event.PM_LD_REF_L1] + self[Event.PM_ST_REF_L1]
        misses = self[Event.PM_LD_MISS_L1] + self[Event.PM_ST_MISS_L1]
        return misses / refs if refs else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        """Conditional mispredictions per branch (~6%)."""
        return self._ratio(Event.PM_BR_MPRED_CR, Event.PM_BR_CMPL)

    @property
    def indirect_mispredict_rate(self) -> float:
        """Target-address mispredictions per indirect branch (~5%)."""
        return self._ratio(Event.PM_BR_MPRED_TA, Event.PM_BR_INDIRECT)

    def per_instruction(self, event: Event) -> float:
        """Occurrences of ``event`` per completed instruction."""
        return self._ratio(event, Event.PM_INST_CMPL)

    @property
    def sync_srq_fraction(self) -> float:
        """Fraction of cycles a SYNC sat in the SRQ (<1% user-level)."""
        return self._ratio(Event.PM_SYNC_SRQ_CYC, Event.PM_CYC)

    def merged_with(self, other: "CounterSnapshot") -> "CounterSnapshot":
        """Element-wise sum — aggregating adjacent windows."""
        keys = set(self.counts) | set(other.counts)
        return CounterSnapshot(
            counts={k: self.get(k) + other.get(k) for k in keys}
        )
