"""Deterministic-callgraph profiling of the simulator's hot paths.

The paper's methodology point — you optimize what you can measure —
applies to the reproduction itself: the core-model kernels dominate
wall-clock, and this module is how we keep seeing that.  It wraps
:mod:`cProfile` around window execution for a chosen config and
distills the result into a small, JSON-serializable report naming the
top functions by inclusive and self time.  The sampling counterpart
(call-stack samples instead of call counts, plus span attribution and
flamegraph export) lives in :mod:`repro.perf.sampler`.

Used by the ``repro profile`` CLI subcommand;
``docs/performance-observatory.md`` documents the workflow.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import ExperimentConfig


@dataclass(frozen=True)
class ProfileEntry:
    """One function's row in the profile."""

    function: str
    file: str
    line: int
    ncalls: int
    tottime: float  # self time, seconds
    cumtime: float  # inclusive time, seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "file": self.file,
            "line": self.line,
            "ncalls": self.ncalls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass
class ProfileReport:
    """The distilled cProfile result for one profiling run."""

    windows: int
    total_seconds: float
    total_calls: int
    entries: List[ProfileEntry] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "windows": self.windows,
            "total_seconds": self.total_seconds,
            "total_calls": self.total_calls,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def function_names(self) -> List[str]:
        return [e.function for e in self.entries]

    def render_lines(self) -> List[str]:
        lines = [
            "",
            "=" * 72,
            f"Profile: {self.windows} windows, "
            f"{self.total_seconds:.2f}s, {self.total_calls} calls",
            "=" * 72,
            f"  {'function':40s} {'ncalls':>9s} {'tottime':>8s} {'cumtime':>8s}",
        ]
        for e in self.entries:
            lines.append(
                f"  {e.function:40.40s} {e.ncalls:>9d} "
                f"{e.tottime:>8.3f} {e.cumtime:>8.3f}"
            )
        return lines


def profile_windows(
    config: Optional[ExperimentConfig] = None,
    windows: int = 20,
    top_n: int = 15,
) -> ProfileReport:
    """Profile ``windows`` sampling windows of the core model.

    Builds a full characterization pipeline for ``config`` (the quick
    preset when None), warms it outside the measurement, then samples
    ``windows`` omniscient windows under :mod:`cProfile`.  Returns the
    ``top_n`` functions by inclusive time.
    """
    from repro.core.characterization import Characterization
    from repro.experiments.common import quick_config

    study = Characterization(config if config is not None else quick_config())
    # Pull the lazy pipeline (workload sim, code model, warmup) outside
    # the profile so the report isolates steady-state window execution.
    study.ensure_warm()

    profiler = cProfile.Profile()
    profiler.enable()
    study.sample_windows(windows)
    profiler.disable()

    stats = pstats.Stats(profiler)
    entries: List[ProfileEntry] = []
    # stats.stats maps (file, line, func) -> (cc, ncalls, tottime,
    # cumtime, callers).
    for (file, line, func), (cc, ncalls, tottime, cumtime, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        entries.append(
            ProfileEntry(
                function=func,
                file=file,
                line=line,
                ncalls=ncalls,
                tottime=tottime,
                cumtime=cumtime,
            )
        )
    entries.sort(key=lambda e: e.cumtime, reverse=True)
    return ProfileReport(
        windows=windows,
        total_seconds=stats.total_tt,  # type: ignore[attr-defined]
        total_calls=stats.total_calls,  # type: ignore[attr-defined]
        entries=entries[:top_n],
    )
