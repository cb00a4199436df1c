"""The best-of-N kernel benchmark suite behind ``repro bench``.

Times the same hot kernels as ``benchmarks/test_core_kernels.py`` —
window execution through the fused ``SliceRunner.run_until`` pipeline,
the array-backed cache, the slot-indexed counter bank — but as plain
absolute timings suitable for a *trajectory*: every kernel runs N
repetitions (identical work each time; stateful structures are rebuilt
outside the timed region) and the full repetition sample is recorded,
so downstream consumers (``repro perf-diff``, ``repro perf-gate``) can
separate drift from noise instead of trusting one number.  Two larger
kernels sit beside them: ``sut_tick_loop`` times one SUT run (the
workload layer alone) and ``reproduce_all_fused`` a miniature sweep;
``run_analysis`` times the steady-state report, vmstat rows and
goodput and throughput series of one already simulated run, and
``runcache_read`` the run cache's read side: decoding that run's disk
entry and keying its config.  ``characterize_windows`` times the
bridge-scheduled mutator windows the characterization campaign runs,
where ``window_execution`` runs a static kernel/GC/idle mix.

Single-shot timing was the original sin the observatory fixes: a
one-measurement ``speedup`` moves with scheduler jitter alone.  Here
``best_s`` (the minimum) is the headline — the least-perturbed
observation of the same deterministic work — and ``spread`` records
how noisy the repetitions were.

The host's own speed also drifts, in phases of seconds to minutes, so
two honest back-to-back records of identical work can read well over
1.3x apart.  Each repetition is therefore paired with one round of a
fixed reference work (``rounds_s``), which lets the gate compare
kernels in units of host speed (:func:`repro.perf.gate.compare_records`).
"""

from __future__ import annotations

import functools
import random
import time
from typing import Callable, Dict, List, Optional

from repro.util.stats import percentile, relative_spread

#: The benchmark family stamped into envelopes and history records.
SUITE_KIND = "perf_suite"

#: Best-of-N policy floor: fewer repetitions cannot support the
#: Mann-Whitney comparison the gate runs.
MIN_REPETITIONS = 5

#: Work of one reference round, about 2 ms on a 2-vCPU Intel Xeon.
ROUND_ARITHMETIC = 5000
ROUND_PROBES = 3000
#: The buffer a round reads and writes, larger than per-core caches.
ROUND_BUFFER_BYTES = 4 << 20


class ReferenceWork:
    """A fixed piece of work, not the program, that gauges host speed.

    A round does interpreted integer arithmetic and dict access, then
    scattered reads and writes over a 4 MiB buffer.
    """

    def __init__(self):
        self._table = dict.fromkeys(range(256), 1)
        self._buffer = bytearray(ROUND_BUFFER_BYTES)
        # Untimed: the first round faults the buffer's pages in.
        self.round()

    def round(self) -> float:
        """CPU seconds this thread takes for one round.

        Thread CPU time leaves out time spent descheduled, but not a
        slower host.
        """
        table, buffer, mask = self._table, self._buffer, ROUND_BUFFER_BYTES - 1
        started = time.thread_time()
        acc = 0
        for i in range(ROUND_ARITHMETIC):
            acc = (acc + table[i & 255] * i) % 1000003
            table[i & 255] = acc & 0xFFFF
        for i in range(ROUND_PROBES):
            acc += buffer[(i * 2654435761 + acc) & mask]
            buffer[(i * 40503) & mask] = i & 255
        return time.thread_time() - started


def best_of(
    setup: Callable[[], object],
    body: Callable[[object], object],
    reps: int,
) -> Dict[str, object]:
    """Time ``body(setup())`` ``reps`` times; record the distribution.

    ``setup`` runs outside the timed region each repetition, so
    stateful kernels (caches, core models) start identical every time
    and the repetitions measure the same work.  One reference round is
    timed right before each repetition (``rounds_s``, same order).
    """
    if reps < 1:
        raise ValueError("need at least one repetition")
    work = ReferenceWork()
    times: List[float] = []
    rounds: List[float] = []
    for _ in range(reps):
        state = setup()
        rounds.append(work.round())
        t0 = time.perf_counter()
        body(state)
        times.append(time.perf_counter() - t0)
    return {
        "reps_s": [round(t, 6) for t in times],
        "rounds_s": [round(r, 7) for r in rounds],
        "best_s": round(min(times), 6),
        "median_s": round(percentile(times, 50.0), 6),
        "spread": round(relative_spread(times), 4),
    }


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _core_builder(windows: int, window_cycles: int):
    from repro.config import JvmConfig, MachineConfig, SamplingConfig
    from repro.cpu.core_model import CoreModel, StaticSchedule
    from repro.cpu.phases import (
        PhaseDescriptor,
        gc_mark_profile,
        idle_profile,
        kernel_profile,
    )
    from repro.cpu.regions import AddressSpace
    from repro.util.rng import RngFactory

    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())

    def setup():
        prof_rng = random.Random(7)
        descriptor = PhaseDescriptor(
            slices=(
                (kernel_profile(prof_rng, space), 0.5),
                (gc_mark_profile(prof_rng, space), 0.3),
                (idle_profile(prof_rng, space), 0.2),
            )
        )
        sampling = SamplingConfig(window_cycles=window_cycles)
        return CoreModel(
            machine, space, StaticSchedule(descriptor), sampling, RngFactory(42)
        )

    def body(core):
        for w in range(windows):
            core.execute_window(w)

    return setup, body


def _characterize_builder(duration_s: float, windows: int):
    """The windows ``characterize`` runs: bridge-scheduled mutator
    slices on a warmed core of a :class:`Characterization`.

    The study and its SUT run are built once, by the first (untimed)
    setup, with a run cache of this kernel's own; every setup takes a
    fresh :meth:`~Characterization.group_core`, whose RNG forks derive
    from the seed alone, so each repetition executes the same windows
    from the same state.  A run shorter than 300 s opens its steady
    window before the JIT has compiled every hot method, so part of the
    ``was_jited`` share runs as the interpreter profile.
    """
    import dataclasses

    from repro.config import SamplingConfig
    from repro.core.characterization import Characterization
    from repro.runcache import RunCache, set_default_cache
    from repro.workload.presets import jas2004

    @functools.cache
    def study():
        cfg = jas2004(duration_s=duration_s, seed=2007)
        built = Characterization(
            dataclasses.replace(
                cfg,
                jvm=dataclasses.replace(cfg.jvm, n_jited_methods=800, warm_methods=40),
                sampling=SamplingConfig(window_cycles=20000, warmup_windows=2),
            )
        )
        previous = set_default_cache(RunCache())
        try:
            built.result  # simulates the run
        finally:
            set_default_cache(previous)
        return built

    def setup():
        return study().group_core("characterize_windows")

    def body(core):
        for w in range(windows):
            core.execute_window(w)

    return setup, body


def _cache_builder(accesses: int):
    from repro.cpu.cache import SetAssociativeCache

    rng = random.Random(99)
    trace = [rng.randrange(4096) for _ in range(accesses)]

    def setup():
        return SetAssociativeCache(128, 2, "lru")

    def body(cache):
        lookup = cache.lookup
        fill = cache.fill
        for block in trace:
            if not lookup(block):
                fill(block)

    return setup, body


def _sweep_builder(
    modules: List[str],
    duration_s: float,
    window_cycles: int,
):
    """A miniature serial ``reproduce_all`` sweep of a catalog subset.

    The suite's sweep-level point: every repetition starts from a
    fresh in-memory run cache, so the sims and window campaigns are
    recomputed — the honest end-to-end cost, not a cache replay.
    """
    import dataclasses

    from repro.config import SamplingConfig
    from repro.workload.presets import jas2004

    def config():
        cfg = jas2004(duration_s=duration_s, seed=2007)
        return dataclasses.replace(
            cfg,
            jvm=dataclasses.replace(
                cfg.jvm, n_jited_methods=200, warm_methods=10
            ),
            sampling=SamplingConfig(
                window_cycles=window_cycles, warmup_windows=2
            ),
        )

    def setup():
        from repro.runcache import RunCache, set_default_cache

        set_default_cache(RunCache())
        return config()

    def body(cfg):
        from repro.experiments.reproduce_all import run as run_all

        run_all(cfg, only=list(modules))

    return setup, body


def _sut_builder(duration_s: float):
    """One fresh ``SystemUnderTest(jas2004(...)).run()`` per repetition.

    The run cache is not consulted, so every repetition simulates the
    whole tick loop.
    """
    from repro.workload.presets import jas2004
    from repro.workload.sut import SystemUnderTest

    def setup():
        return SystemUnderTest(jas2004(duration_s=duration_s, seed=2007))

    def body(sut):
        sut.run()

    return setup, body


def _analysis_builder(duration_s: float):
    """The replay-side analysis of one SUT run, per repetition.

    The run is simulated once, by the first (untimed) setup, with no
    run cache; every repetition reads the same run.
    """
    from repro.tools.vmstat import VmstatReport
    from repro.workload.metrics import evaluate_run, goodput_series
    from repro.workload.presets import jas2004
    from repro.workload.sut import SystemUnderTest

    @functools.cache
    def setup():
        return SystemUnderTest(jas2004(duration_s=duration_s, seed=2007)).run()

    def body(result):
        evaluate_run(result)
        VmstatReport(result, 5.0)
        goodput_series(result)
        result.timeline.throughput_series()

    return setup, body


def _runcache_read_builder(duration_s: float):
    """One disk-tier read per repetition: ``decode_entry`` on a run's
    entry bytes plus ``config_key`` on its config.

    The run is simulated and encoded once, by the first (untimed)
    setup; every repetition reads the same bytes.  The setup decodes
    the entry once too, so the first repetition does not also pay for
    the fresh pages its unpickled run takes.
    """
    from repro.runcache import config_key, decode_entry, encode_entry
    from repro.workload.presets import jas2004
    from repro.workload.sut import SystemUnderTest

    @functools.cache
    def setup():
        config = jas2004(duration_s=duration_s, seed=2007)
        blob = encode_entry(SystemUnderTest(config).run())
        decode_entry(blob)
        return config, blob

    def body(state):
        config, blob = state
        decode_entry(blob)
        config_key(config)

    return setup, body


def _counter_builder(increments: int):
    from repro.hpm.counters import CounterBank
    from repro.hpm.events import EVENT_INDEX, Event

    slot = EVENT_INDEX[Event.PM_LD_REF_L1]

    def setup():
        return CounterBank()

    def body(bank):
        data = bank.data
        for _ in range(increments):
            data[slot] += 1

    return setup, body


def run_suite(
    quick: bool = False,
    reps: int = MIN_REPETITIONS,
    kernels: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the kernel suite; returns ``{kernel: best_of result}``.

    ``quick`` shrinks the per-kernel work (CI smoke / tests) without
    changing the repetition policy.  Results additionally carry the
    kernel's size parameters so two records are only comparable when
    they measured the same work.
    """
    if reps < MIN_REPETITIONS:
        raise ValueError(
            f"best-of-N needs N >= {MIN_REPETITIONS} for the statistical "
            f"gate, got {reps}"
        )
    windows, window_cycles = (4, 20000) if quick else (12, 60000)
    accesses = 50_000 if quick else 200_000
    increments = 100_000 if quick else 300_000
    # The sweep-scale point: quick keeps two figures at a 60s virtual
    # run; the full tier adds Figure 9 (two contrast configs) at 300s.
    sweep_modules = (
        ["fig05_cpi", "fig07_tlb"]
        if quick
        else ["fig05_cpi", "fig07_tlb", "fig09_sources"]
    )
    sweep_duration, sweep_cycles = (60.0, 10000) if quick else (300.0, 20000)
    sweep_params = {
        "modules": list(sweep_modules),
        "duration_s": sweep_duration,
        "window_cycles": sweep_cycles,
    }
    # One SUT run on its own: the workload layer without window work;
    # the analysis of one such run, without the simulation; and the
    # read of its run-cache entry.
    sut_duration = 30.0 if quick else 600.0
    # Windows of the characterization campaign, over a run of its own.
    study_duration, study_windows = (60.0, 4) if quick else (300.0, 40)
    catalog = {
        "window_execution": (
            _core_builder(windows, window_cycles),
            {"windows": windows, "window_cycles": window_cycles},
        ),
        "characterize_windows": (
            _characterize_builder(study_duration, study_windows),
            {"duration_s": study_duration, "windows": study_windows},
        ),
        "cache_kernel": (_cache_builder(accesses), {"accesses": accesses}),
        "counter_kernel": (
            _counter_builder(increments),
            {"increments": increments},
        ),
        "reproduce_all_fused": (
            _sweep_builder(sweep_modules, sweep_duration, sweep_cycles),
            dict(sweep_params),
        ),
        "sut_tick_loop": (_sut_builder(sut_duration), {"duration_s": sut_duration}),
        "run_analysis": (
            _analysis_builder(sut_duration),
            {"duration_s": sut_duration},
        ),
        "runcache_read": (
            _runcache_read_builder(sut_duration),
            {"duration_s": sut_duration},
        ),
    }
    chosen = kernels if kernels is not None else sorted(catalog)
    unknown = sorted(set(chosen) - set(catalog))
    if unknown:
        raise ValueError(
            f"unknown kernels {unknown}; available: {sorted(catalog)}"
        )
    results: Dict[str, object] = {}
    for name in chosen:
        (setup, body), params = catalog[name]
        measured = best_of(setup, body, reps)
        measured.update(params)
        results[name] = measured
    return results


def suite_spread(results: Dict[str, object]) -> Dict[str, float]:
    """The envelope-level ``spread`` map for a suite's results."""
    return {
        name: entry["spread"]
        for name, entry in sorted(results.items())
        if isinstance(entry, dict) and "spread" in entry
    }


def render_suite_lines(results: Dict[str, object], reps: int) -> List[str]:
    lines = [
        "",
        "=" * 72,
        f"Kernel suite (best of {reps})",
        "=" * 72,
        f"  {'kernel':20s} {'best_s':>10s} {'median_s':>10s} {'spread':>8s}",
    ]
    for name in sorted(results):
        entry = results[name]
        lines.append(
            f"  {name:20s} {entry['best_s']:>10.4f} "
            f"{entry['median_s']:>10.4f} {entry['spread'] * 100:>7.1f}%"
        )
    return lines
