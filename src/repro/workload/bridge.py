"""The workload-to-microarchitecture bridge.

:class:`WorkloadPhaseSchedule` turns a finished workload run into the
:class:`~repro.cpu.core_model.PhaseSchedule` the CPU model samples: each
hpmstat window maps onto one timeline tick, and the tick's accounting
becomes the window's phase composition:

* software-component CPU shares become mutator profile slices, with
  per-window :class:`~repro.jvm.runtime.MutatorIntensity` blended from
  the transaction types actually running in that tick;
* GC CPU time becomes mark/sweep slices (>80% mark, like the measured
  pauses);
* kernel time is excluded because the paper's HPM data "correspond
  to user-level processes only";
* idle time is likewise excluded — an idle CPU runs no user process.
  Fully idle ticks fall back to the idle-loop profile, which is how
  the "idle system CPI ~0.7" observation is measured.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.core_model import PhaseSchedule  # noqa: F401  (protocol reference)
from repro.cpu.phases import (
    PhaseDescriptor,
    PhaseProfile,
    gc_mark_profile,
    gc_sweep_profile,
    idle_profile,
    interpreter_profile,
    kernel_profile,
)
from repro.cpu.regions import AddressSpace
from repro.jvm.methods import MethodRegistry
from repro.jvm.runtime import MutatorIntensity, mutator_profiles
from repro.util.rng import RngFactory
from repro.workload.sut import RunResult
from repro.workload.timeline import COMPONENTS

#: Share of a GC pause spent marking (the paper: >80%).
GC_MARK_SHARE = 0.82


class WorkloadPhaseSchedule:
    """Phase descriptors derived from a workload run's timeline."""

    def __init__(
        self,
        result: RunResult,
        registry: MethodRegistry,
        space: AddressSpace,
        rng_factory: RngFactory,
        jit=None,
    ):
        self.result = result
        self.registry = registry
        self.space = space
        #: Optional JIT timeline: when provided, the not-yet-compiled
        #: share of the would-be-JITed execution runs the interpreter
        #: profile instead (the early-run dynamic behind the paper's
        #: "profile the last five minutes" methodology).
        self.jit = jit
        self._rng = rng_factory.stream("bridge.phases")
        build_rng = rng_factory.stream("bridge.pools")
        self._gc_mark = gc_mark_profile(build_rng, space)
        self._gc_sweep = gc_sweep_profile(build_rng, space)
        # Kernel time is never sampled, but its profile's draws stay:
        # the idle and interpreter profiles come after them.
        kernel_profile(build_rng, space)
        self._idle = idle_profile(build_rng, space)
        self._interpreter = interpreter_profile(build_rng, space)

        start_time_s, _ = result.steady_window()
        self._start_tick = int(round(start_time_s / result.timeline.tick_s))
        self._specs = result.config.workload.transactions
        self._intensities = [
            MutatorIntensity(
                stream=spec.stream_intensity,
                cold=spec.cold_intensity,
                lock=spec.lock_intensity,
                shared=spec.shared_intensity,
            )
            for spec in self._specs
        ]
        self._component_index = {name: i for i, name in enumerate(COMPONENTS)}

    # ------------------------------------------------------------------
    def window_for_tick(self, tick: int) -> int:
        """The window index that maps onto timeline tick ``tick``."""
        return tick - self._start_tick

    def gc_window_indices(self, max_events: Optional[int] = None) -> list:
        """Window indices landing inside steady-state GC pauses.

        Each GC event contributes the windows its pause covers, so
        experiments can sample guaranteed-GC windows without scanning.
        """
        timeline = self.result.timeline
        t0, t1 = self.result.steady_window()
        indices = []
        events = [
            e for e in self.result.gc_events if t0 <= e.start_time_s < t1
        ]
        if max_events is not None:
            events = events[:max_events]
        for event in events:
            first_tick = int(event.start_time_s / timeline.tick_s) + 1
            last_tick = int(
                (event.start_time_s + event.pause_ms / 1000.0) / timeline.tick_s
            )
            for tick in range(first_tick, last_tick + 1):
                idx = self.window_for_tick(tick)
                if idx >= 0:
                    indices.append(idx)
        return indices

    def tick_for_window(self, window_index: int) -> int:
        tick = self._start_tick + window_index
        n = len(self.result.timeline)
        if tick >= n:
            # Wrap within the steady region rather than fall off the run.
            t0, t1 = self.result.steady_window()
            lo = int(round(t0 / self.result.timeline.tick_s))
            hi = max(lo + 1, int(round(t1 / self.result.timeline.tick_s)))
            tick = lo + (tick - lo) % (hi - lo)
        return tick

    def descriptor_for(self, window_index: int) -> PhaseDescriptor:
        timeline = self.result.timeline
        # Indexing a range gives list semantics to a negative tick.
        tick = range(len(timeline))[self.tick_for_window(window_index)]
        n_types = len(self._specs)
        n_components = len(COMPONENTS)
        by_component = timeline.cpu_ms_by_component[
            tick * n_components : (tick + 1) * n_components
        ]
        gc_ms = timeline.gc_ms[tick]

        intensity = MutatorIntensity.blend(
            zip(
                self._intensities,
                timeline.cpu_ms_by_type[tick * n_types : (tick + 1) * n_types],
            )
        )
        profiles = mutator_profiles(
            self.registry,
            self.space,
            self._rng,
            intensity,
            devirtualize_fraction=self.result.config.jvm.devirtualize_fraction,
            churn_segregated=self.result.config.jvm.churn_segregated,
        )

        compiled = 1.0
        if self.jit is not None:
            now_s = self.tick_for_window(window_index) * timeline.tick_s
            compiled = self.jit.compiled_weight_fraction(now_s)

        weights = []
        for name in ("web", "was_jited", "was_nonjited", "db2"):
            ms = by_component[self._component_index[name]]
            if ms <= 0:
                continue
            if name == "was_jited" and compiled < 1.0:
                # The interpreter runs ~5x more instructions per unit
                # of work, but the timeline already accounts wall-clock
                # CPU; here only the *character* of the code changes.
                weights.append((profiles[name], ms * compiled))
                interp_ms = ms * (1.0 - compiled)
                if interp_ms > 0:
                    weights.append((self._interpreter, interp_ms))
            else:
                weights.append((profiles[name], ms))
        if gc_ms > 0:
            weights.append((self._gc_mark, gc_ms * GC_MARK_SHARE))
            weights.append((self._gc_sweep, gc_ms * (1.0 - GC_MARK_SHARE)))

        total = sum(w for _, w in weights)
        if total <= 0.0:
            return PhaseDescriptor(
                slices=((self._idle, 1.0),), gc_fraction=0.0, label="idle"
            )
        gc_fraction = gc_ms / total
        slices = tuple((profile, w / total) for profile, w in weights)
        label = "gc" if gc_fraction > 0.5 else "mutator"
        return PhaseDescriptor(slices=slices, gc_fraction=gc_fraction, label=label)


class UniformPhaseSchedule:
    """A schedule with a fixed mutator composition (no workload run).

    Useful for calibration experiments and unit tests where the
    variance of a real run would get in the way.
    """

    def __init__(
        self,
        registry: MethodRegistry,
        space: AddressSpace,
        rng_factory: RngFactory,
        component_shares: Optional[dict] = None,
        intensity: MutatorIntensity = MutatorIntensity(),
    ):
        self.registry = registry
        self.space = space
        self._rng = rng_factory.stream("bridge.phases")
        self.intensity = intensity
        self.component_shares = component_shares or {
            "was_jited": 0.34,
            "was_nonjited": 0.32,
            "web": 0.11,
            "db2": 0.23,
        }

    def descriptor_for(self, window_index: int) -> PhaseDescriptor:
        profiles = mutator_profiles(
            self.registry, self.space, self._rng, self.intensity
        )
        total = sum(self.component_shares.values())
        slices = tuple(
            (profiles[name], share / total)
            for name, share in self.component_shares.items()
            if share > 0
        )
        return PhaseDescriptor(slices=slices, label="uniform")
