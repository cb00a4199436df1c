"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import List, Optional, Union

from repro import conformance
from repro.config import ExperimentConfig, SamplingConfig
from repro.obs import runtime as _obs
from repro.obs.trace import WALL
from repro.runcache import RunCache, default_cache
from repro.workload.presets import jas2004
from repro.workload.sut import RunResult

Number = Union[int, float]


def simulate(
    config: ExperimentConfig,
    *,
    rng_fork: Optional[str] = None,
    cache: Optional[RunCache] = None,
) -> RunResult:
    """Run the SUT for ``config``, reusing a previous identical run.

    Every experiment driver goes through this instead of constructing
    :class:`~repro.workload.sut.SystemUnderTest` directly, so a sweep
    that revisits a configuration (``reproduce-all`` re-simulates the
    untouched baseline six times) only pays for it once.  The result is
    bit-identical to an uncached run: the config (seed included) plus
    ``rng_fork`` fully determine the simulation, and they are exactly
    the cache key.
    """
    chosen = cache if cache is not None else default_cache()
    obs = _obs._ACTIVE
    if obs is None:
        return chosen.get_or_run(config, rng_fork=rng_fork)
    before = chosen.stats.snapshot()
    t0 = time.perf_counter()
    result = chosen.get_or_run(config, rng_fork=rng_fork)
    delta = chosen.stats.since(before)
    obs.tracer.record(
        "simulate",
        "sim",
        start_s=t0,
        duration_s=time.perf_counter() - t0,
        clock=WALL,
        labels={
            "fork": rng_fork if rng_fork is not None else "-",
            "cached": delta.misses == 0,
        },
    )
    return result


@dataclass(frozen=True)
class Row:
    """One line of a paper-vs-measured table: ``value`` is judged by
    the band ``key`` (:data:`repro.conformance.BANDS`), which also gives
    the paper column; ``config`` resolves a band scaled to the run."""

    label: str
    key: str
    value: float
    measured: str
    config: Optional[ExperimentConfig] = None

    def __post_init__(self) -> None:
        conformance.band(self.key)  # an unknown key fails here

    @property
    def band(self) -> conformance.Band:
        return conformance.band(self.key).for_config(self.config)

    @property
    def mark(self) -> str:
        """``ok``, ``gap N``, ``ext`` or ``OFF``."""
        return self.band.mark(self.value)

    @property
    def ok(self) -> bool:
        """False only for an ``[OFF]`` row."""
        return self.mark != conformance.OFF

    def render(self) -> str:
        return (
            f"  {self.label:42s} paper: {self.band.claim:>18s}   "
            f"measured: {self.measured:>18s}  [{self.mark}]"
        )


def fmt(value: Number, nd: int = 2, unit: str = "") -> str:
    if isinstance(value, int):
        return f"{value}{unit}"
    return f"{value:.{nd}f}{unit}"


def ratio(num: float, den: float) -> float:
    """``num / den``; x/0 is inf and 0/0 NaN, which no band contains."""
    if den:
        return num / den
    return math.copysign(math.inf, num) if num else math.nan


def least(*values: float) -> float:
    """``min(values)``, but NaN if any is NaN (``min`` may drop it)."""
    return math.nan if any(map(math.isnan, values)) else min(values)


def header(title: str) -> List[str]:
    return ["", "=" * 72, title, "=" * 72]


def bench_config(seed: int = 2007, duration_s: float = 1200.0) -> ExperimentConfig:
    """The standard benchmark-scale configuration.

    A 20-minute virtual run (long enough for ~45 GCs and a stable
    steady state) with windows big enough to keep per-window sampling
    noise moderate.
    """
    cfg = jas2004(duration_s=duration_s, seed=seed)
    return dataclasses.replace(
        cfg, sampling=SamplingConfig(window_cycles=20000, warmup_windows=8)
    )


def quick_config(seed: int = 2007) -> ExperimentConfig:
    """A fast configuration for tests and smoke runs."""
    cfg = jas2004(duration_s=300.0, seed=seed)
    cfg = dataclasses.replace(
        cfg,
        jvm=dataclasses.replace(cfg.jvm, n_jited_methods=800, warm_methods=40),
        sampling=SamplingConfig(window_cycles=20000, warmup_windows=5),
    )
    return cfg
