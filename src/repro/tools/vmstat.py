"""vmstat: system-level CPU utilization and memory columns.

The paper's first tuning step watched vmstat until user+system CPU was
near 100% with ~0% I/O wait — unreachable with two hard disks, easy
with a RAM disk.  This tool folds the run timeline into classic vmstat
rows (us/sy/id/wa percentages plus run/IO queue lengths and heap use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.units import MB
from repro.workload.sut import RunResult
from repro.workload.timeline import COMPONENTS


@dataclass(frozen=True)
class VmstatRow:
    """One vmstat sample (percentages sum to ~100)."""

    time_s: float
    user_pct: float
    system_pct: float
    idle_pct: float
    iowait_pct: float
    run_queue: float
    io_queue: float
    heap_used_mb: float


class VmstatReport:
    """vmstat rows aggregated from a run's timeline."""

    def __init__(self, result: RunResult, interval_s: float = 5.0):
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.result = result
        self.interval_s = interval_s
        self.rows = self._build()

    def _build(self) -> List[VmstatRow]:
        timeline = self.result.timeline
        per_row = max(1, int(round(self.interval_s / timeline.tick_s)))
        n = len(COMPONENTS)
        kernel_index = COMPONENTS.index("kernel")
        capacity = timeline.capacity_ms_per_tick
        cpu = timeline.cpu_ms_by_component
        # Each tick's busy ms, taken once; every row sums its slice.
        busy_ms = timeline.busy_ms(0, len(timeline))
        rows: List[VmstatRow] = []
        for start in range(0, len(timeline) - per_row + 1, per_row):
            end = start + per_row
            cap = capacity * per_row
            kernel = sum(cpu[start * n + kernel_index : end * n : n])
            busy = sum(busy_ms[start:end])
            user = busy - kernel
            idle_ms = timeline.idle_ms[start:end]
            io_waiting = timeline.io_waiting[start:end]
            idle = sum(idle_ms)
            # Idle time while disk requests are outstanding is I/O wait
            # — the distinction the paper's disk experiments hinge on.
            iowait = sum(ms for ms, io in zip(idle_ms, io_waiting) if io > 0)
            idle -= iowait
            rows.append(
                VmstatRow(
                    time_s=start * timeline.tick_s,
                    user_pct=100.0 * user / cap,
                    system_pct=100.0 * kernel / cap,
                    idle_pct=100.0 * max(0.0, idle) / cap,
                    iowait_pct=100.0 * iowait / cap,
                    run_queue=sum(timeline.queue_length[start:end]) / per_row,
                    io_queue=sum(io_waiting) / per_row,
                    heap_used_mb=timeline.heap_used_bytes[end - 1] / MB,
                )
            )
        return rows

    def steady_rows(self) -> List[VmstatRow]:
        t0, t1 = self.result.steady_window()
        return [r for r in self.rows if t0 <= r.time_s < t1]

    def _mean_rows(self) -> List[VmstatRow]:
        """The steady-state rows, or every row if none is steady."""
        rows = self.steady_rows() or self.rows
        if not rows:
            raise ValueError("run is shorter than one vmstat interval")
        return rows

    def mean_user_pct(self) -> float:
        rows = self._mean_rows()
        return sum(r.user_pct for r in rows) / len(rows)

    def mean_system_pct(self) -> float:
        rows = self._mean_rows()
        return sum(r.system_pct for r in rows) / len(rows)

    def mean_iowait_pct(self) -> float:
        rows = self._mean_rows()
        return sum(r.iowait_pct for r in rows) / len(rows)

    def render_lines(self, limit: int = 20) -> List[str]:
        header = " time     us    sy    id    wa    r     b   heapMB"
        lines = [header]
        for row in self.rows[:limit]:
            lines.append(
                f"{row.time_s:6.0f} {row.user_pct:5.1f} {row.system_pct:5.1f} "
                f"{row.idle_pct:5.1f} {row.iowait_pct:5.1f} "
                f"{row.run_queue:5.1f} {row.io_queue:5.1f} {row.heap_used_mb:8.1f}"
            )
        return lines
