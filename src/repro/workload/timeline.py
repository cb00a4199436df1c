"""Per-tick run records and aggregation helpers.

The timeline is stored column by column: one typed :class:`array.array`
per field, with the per-type and per-component fields flattened
tick-major (tick ``i``, type ``k`` sits at ``i * n_types + k``).  A
one-hour run at 0.1 s ticks produces 36,000 ticks; as columns they cost
a machine word per value, pickle as flat bytes and give the cyclic
garbage collector nothing to walk.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Software components tracked by the CPU accounting, in Figure 4's
#: breakdown.  GC and idle time are tracked separately.
COMPONENTS: Tuple[str, ...] = ("web", "was_jited", "was_nonjited", "db2", "kernel")
_N_COMPONENTS = len(COMPONENTS)


@dataclass(frozen=True)
class TickRecord:
    """Everything measured during one simulation tick.

    The element type of :attr:`RunTimeline.records`, a view built on
    demand from the columns.
    """

    index: int
    arrivals: Tuple[int, ...]
    completions: Tuple[int, ...]
    cpu_ms_by_component: Tuple[float, ...]
    cpu_ms_by_type: Tuple[float, ...]
    gc_ms: float
    idle_ms: float
    io_waiting: int
    heap_used_bytes: int
    queue_length: int

    @property
    def busy_ms(self) -> float:
        return sum(self.cpu_ms_by_component) + self.gc_ms


class RunTimeline:
    """The per-tick measurements of one run, one typed column per field."""

    def __init__(self, tick_s: float, tx_names: Sequence[str], n_cores: int):
        if tick_s <= 0:
            raise ValueError("tick must be positive")
        self.tick_s = tick_s
        self.tx_names = tuple(tx_names)
        self.n_cores = n_cores
        #: Per tick and transaction type, tick-major: first attempts
        #: arrived and client-visible completions.
        self.arrivals = array("q")
        self.completions = array("q")
        #: Per tick and component (:data:`COMPONENTS` order), tick-major.
        self.cpu_ms_by_component = array("d")
        #: Per tick and transaction type, tick-major.
        self.cpu_ms_by_type = array("d")
        #: One value per tick.
        self.gc_ms = array("d")
        self.idle_ms = array("d")
        self.io_waiting = array("q")
        self.heap_used_bytes = array("q")
        self.queue_length = array("q")

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_tick(
        self,
        arrivals: Sequence[int],
        completions: Sequence[int],
        cpu_ms_by_component: Sequence[float],
        cpu_ms_by_type: Sequence[float],
        gc_ms: float,
        idle_ms: float,
        io_waiting: int,
        heap_used_bytes: int,
        queue_length: int,
    ) -> None:
        """Append the next tick; its index is its position."""
        self.arrivals.extend(arrivals)
        self.completions.extend(completions)
        self.cpu_ms_by_component.extend(cpu_ms_by_component)
        self.cpu_ms_by_type.extend(cpu_ms_by_type)
        self.gc_ms.append(gc_ms)
        self.idle_ms.append(idle_ms)
        self.io_waiting.append(io_waiting)
        self.heap_used_bytes.append(heap_used_bytes)
        self.queue_length.append(queue_length)

    def __len__(self) -> int:
        return len(self.gc_ms)

    @property
    def duration_s(self) -> float:
        return len(self) * self.tick_s

    @property
    def capacity_ms_per_tick(self) -> float:
        return self.n_cores * self.tick_s * 1000.0

    @property
    def records(self) -> List[TickRecord]:
        """One :class:`TickRecord` per tick, as a fresh list.

        A read-only view for tests, examples and digests; the
        aggregations below read the columns.
        """
        t = len(self.tx_names)
        c = _N_COMPONENTS
        return [
            TickRecord(
                index=i,
                arrivals=tuple(self.arrivals[i * t : i * t + t]),
                completions=tuple(self.completions[i * t : i * t + t]),
                cpu_ms_by_component=tuple(self.cpu_ms_by_component[i * c : i * c + c]),
                cpu_ms_by_type=tuple(self.cpu_ms_by_type[i * t : i * t + t]),
                gc_ms=self.gc_ms[i],
                idle_ms=self.idle_ms[i],
                io_waiting=self.io_waiting[i],
                heap_used_bytes=self.heap_used_bytes[i],
                queue_length=self.queue_length[i],
            )
            for i in range(len(self))
        ]

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _bounds(self, t_from: float, t_to: float) -> Tuple[int, int]:
        """Tick range ``[i0, i1)`` of a window, clipped to the run.

        The ticks are a list slice of the run's ticks, so a negative
        end tick counts from the end of the run.
        """
        i0 = max(0, int(t_from / self.tick_s))
        i1 = int(min(t_to, self.duration_s) / self.tick_s)
        ticks = range(len(self))[i0:i1]
        return ticks.start, ticks.start + len(ticks)

    def busy_ms(self, i0: int, i1: int) -> List[float]:
        """Busy CPU ms (component CPU plus GC) of each tick in ``[i0, i1)``.

        Each tick is ``sum(its components) + gc``: the ``+ gc`` stays
        outside the ``sum()``, which Python 3.12 compensates.
        """
        cpu = self.cpu_ms_by_component
        n = _N_COMPONENTS
        columns = [cpu[i0 * n + c : i1 * n : n] for c in range(n)]
        return list(map(operator.add, map(sum, zip(*columns)), self.gc_ms[i0:i1]))

    def throughput_series(
        self, bucket_s: float = 1.0, t_from: float = 0.0, t_to: float = float("inf")
    ) -> Tuple[List[float], List[List[float]]]:
        """Per-bucket throughput (ops/s) per transaction type.

        Returns ``(bucket_times, series)`` where ``series[k]`` is the
        ops/s series of transaction type ``k`` — Figure 2's four lines.
        """
        i0, i1 = self._bounds(t_from, t_to)
        per_bucket = max(1, int(round(bucket_s / self.tick_s)))
        n_types = len(self.tx_names)
        span = per_bucket * self.tick_s
        times: List[float] = []
        series: List[List[float]] = [[] for _ in self.tx_names]
        for start in range(i0, i1 - per_bucket + 1, per_bucket):
            times.append(start * self.tick_s + bucket_s / 2.0)
            lo, hi = start * n_types, (start + per_bucket) * n_types
            for k in range(n_types):
                total = sum(self.completions[lo + k : hi : n_types])
                series[k].append(total / span)
        return times, series

    def mean_utilization(self, t_from: float = 0.0, t_to: float = float("inf")) -> float:
        i0, i1 = self._bounds(t_from, t_to)
        if i0 == i1:
            raise ValueError("empty window")
        busy = sum(self.busy_ms(i0, i1))
        return busy / (self.capacity_ms_per_tick * (i1 - i0))

    def component_shares(
        self, t_from: float = 0.0, t_to: float = float("inf")
    ) -> dict:
        """Share of *busy* CPU time per component (plus ``"gc"``).

        This is the Figure 4 breakdown when measured over the last five
        minutes of the run.
        """
        i0, i1 = self._bounds(t_from, t_to)
        if i0 == i1:
            raise ValueError("empty window")
        n = _N_COMPONENTS
        cpu = np.frombuffer(self.cpu_ms_by_component)[i0 * n : i1 * n].reshape(-1, n)
        gc = np.frombuffer(self.gc_ms)[i0:i1]
        # ``cumsum`` adds down each column in tick order, as a
        # ``total += ms`` loop from 0.0 does; ``+ 0.0`` gives a column of
        # ``-0.0`` the loop's ``0.0``.
        totals = dict(zip(COMPONENTS, (np.cumsum(cpu, axis=0)[-1] + 0.0).tolist()))
        gc_total = float(np.cumsum(gc)[-1] + 0.0)
        busy = sum(totals.values()) + gc_total
        if busy <= 0:
            raise ValueError("no busy time in window")
        shares = {name: ms / busy for name, ms in totals.items()}
        shares["gc"] = gc_total / busy
        return shares

    def heap_series(self, bucket_s: float = 1.0) -> Tuple[List[float], List[float]]:
        """Heap used (bytes) at bucket boundaries."""
        per_bucket = max(1, int(round(bucket_s / self.tick_s)))
        ticks = range(0, len(self), per_bucket)
        times = [i * self.tick_s for i in ticks]
        values = [float(self.heap_used_bytes[i]) for i in ticks]
        return times, values
