"""Core-model kernel microbenchmarks — the ``BENCH_core_model.json`` feed.

Times the optimized kernels against the pinned pre-optimization
implementations in :mod:`repro.cpu.reference`:

* **window_execution** — full sampling windows through ``CoreModel``
  vs ``ReferenceCoreModel`` (the headline number; the PR's acceptance
  bar is a >= 3x speedup), with the per-window snapshots asserted
  bit-identical so the speedup is provably for the same work;
* **cache_kernel** — the array-backed ``SetAssociativeCache`` vs the
  OrderedDict reference on a mixed hit/miss access trace;
* **counter_kernel** — slot-indexed ``CounterBank`` increments vs the
  enum-dict reference;
* **fig10_campaign** — wall-clock of the shared-core Figure 10
  correlation campaign (the campaign ``fig10_correlation`` runs) on
  optimized vs reference cores.

Every timing is **best-of-N** (N = ``REPS`` >= 5) through
:func:`repro.perf.benchsuite.best_of`: each repetition rebuilds the
stateful structures outside the timed region and the full repetition
sample (plus its relative spread) lands in the envelope, so the
recorded ``speedup`` — a ratio of minima — is no longer hostage to
one scheduler hiccup.  Results accumulate into
``BENCH_core_model.json`` at the repo root under the schema-2
envelope — the perf-trajectory artifact CI uploads.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_core_kernels.py -q -s -m bench
"""

from __future__ import annotations

import pathlib
import random

import pytest

from repro.benchio import write_bench_json
from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.core.characterization import Characterization
from repro.core.correlation import CpiCorrelationStudy
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.phases import (
    PhaseDescriptor,
    gc_mark_profile,
    idle_profile,
    kernel_profile,
)
from repro.cpu.reference import (
    ReferenceCoreModel,
    ReferenceCounterBank,
    ReferenceSetAssociativeCache,
)
from repro.cpu.regions import AddressSpace
from repro.experiments.common import quick_config
from repro.hpm.counters import CounterBank
from repro.hpm.events import EVENT_INDEX, Event
from repro.perf.benchsuite import best_of
from repro.util.rng import RngFactory

#: Everything here is a microbenchmark: excluded from the default
#: tier-1 selection, run explicitly with ``-m bench`` (see
#: ``pyproject.toml`` and the CI ``benchmarks-smoke`` job).
pytestmark = pytest.mark.bench

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_core_model.json"

#: Best-of-N repetitions per timed side (the schema-2 envelope policy;
#: the perf-gate's Mann-Whitney comparison needs N >= 5).
REPS = 5

#: Module-level accumulator; written out by the module-scoped fixture's
#: teardown so a partial run still records what it measured.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_json():
    yield _RESULTS
    if _RESULTS:
        spread = {
            name: entry["spread"]
            for name, entry in sorted(_RESULTS.items())
            if "spread" in entry
        }
        write_bench_json(
            BENCH_PATH,
            _RESULTS,
            kind="core_model_bench",
            repetitions=REPS,
            spread=spread,
        )
        print(f"\nwrote {BENCH_PATH}")


def _build_core(model_cls, seed: int = 42):
    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())
    prof_rng = random.Random(7)
    descriptor = PhaseDescriptor(
        slices=(
            (kernel_profile(prof_rng, space), 0.5),
            (gc_mark_profile(prof_rng, space), 0.3),
            (idle_profile(prof_rng, space), 0.2),
        )
    )
    sampling = SamplingConfig(window_cycles=60000)
    return model_cls(
        machine, space, StaticSchedule(descriptor), sampling, RngFactory(seed)
    )


def _versus(entry_name, bench_json, opt, ref, extra):
    """Record one optimized-vs-reference pair (best-of-REPS minima)."""
    opt_s = opt["best_s"]
    ref_s = ref["best_s"]
    entry = dict(extra)
    entry.update(
        {
            "optimized_s": opt_s,
            "reference_s": ref_s,
            "optimized_reps_s": opt["reps_s"],
            "reference_reps_s": ref["reps_s"],
            "spread": opt["spread"],
            "speedup": round(ref_s / opt_s, 2),
        }
    )
    bench_json[entry_name] = entry
    print(
        f"\n{entry_name}: {ref_s:.3f}s -> {opt_s:.3f}s "
        f"({ref_s / opt_s:.1f}x, best of {REPS})"
    )
    return ref_s / opt_s


def test_window_execution_speedup(bench_json):
    """Full windows, optimized vs reference — identical output, >=3x faster."""
    n_windows = 12

    # The speedup must be for the same work: bit-identical snapshots
    # (checked on one untimed pass; the timed repetitions rebuild the
    # cores identically from the same seeds).
    optimized = _build_core(CoreModel)
    reference = _build_core(ReferenceCoreModel)
    opt_snaps = [optimized.execute_window(w) for w in range(n_windows)]
    ref_snaps = [reference.execute_window(w) for w in range(n_windows)]
    for w, (opt, ref) in enumerate(zip(opt_snaps, ref_snaps)):
        assert dict(opt.counts) == dict(ref.counts), f"window {w} diverged"

    def body(core):
        for w in range(n_windows):
            core.execute_window(w)

    opt = best_of(lambda: _build_core(CoreModel), body, REPS)
    ref = best_of(lambda: _build_core(ReferenceCoreModel), body, REPS)
    speedup = _versus(
        "window_execution",
        bench_json,
        opt,
        ref,
        {"windows": n_windows, "window_cycles": 60000},
    )
    assert speedup >= 3.0, f"window-execution speedup {speedup:.2f}x < 3x"


def test_cache_kernel_speedup(bench_json):
    """Array-backed sets vs OrderedDict sets on a mixed access trace."""
    rng = random.Random(99)
    trace = [rng.randrange(4096) for _ in range(200_000)]

    def body(cache):
        for block in trace:
            if not cache.lookup(block):
                cache.fill(block)

    opt_cache = SetAssociativeCache(128, 2, "lru")
    ref_cache = ReferenceSetAssociativeCache(128, 2, "lru")
    body(opt_cache)
    body(ref_cache)
    assert (opt_cache.hits, opt_cache.misses) == (ref_cache.hits, ref_cache.misses)

    opt = best_of(lambda: SetAssociativeCache(128, 2, "lru"), body, REPS)
    ref = best_of(lambda: ReferenceSetAssociativeCache(128, 2, "lru"), body, REPS)
    _versus(
        "cache_kernel", bench_json, opt, ref, {"accesses": len(trace)}
    )
    # The cache kernel alone need not hit 3x (dict ops are C-fast);
    # it must simply not be a regression.
    assert opt["best_s"] < ref["best_s"] * 1.1


def test_counter_kernel_speedup(bench_json):
    """Slot-indexed increments vs enum-dict adds."""
    n = 300_000
    slot = EVENT_INDEX[Event.PM_LD_REF_L1]

    def opt_body(bank):
        data = bank.data
        for _ in range(n):
            data[slot] += 1

    def ref_body(bank):
        for _ in range(n):
            bank.add(Event.PM_LD_REF_L1)

    check_opt, check_ref = CounterBank(), ReferenceCounterBank()
    opt_body(check_opt)
    ref_body(check_ref)
    assert check_opt.value(Event.PM_LD_REF_L1) == check_ref.value(
        Event.PM_LD_REF_L1
    )

    opt = best_of(CounterBank, opt_body, REPS)
    ref = best_of(ReferenceCounterBank, ref_body, REPS)
    _versus("counter_kernel", bench_json, opt, ref, {"increments": n})
    assert opt["best_s"] < ref["best_s"]


class _ReferenceCharacterization(Characterization):
    """The full pipeline with pre-optimization cores underneath."""

    core_model_cls = ReferenceCoreModel


def _campaign_setup(study_cls, config):
    def setup():
        study = study_cls(config)
        study.ensure_warm()  # simulate the run and warm the core untimed
        return study

    return setup


def _campaign_body(windows_per_group):
    def body(study):
        CpiCorrelationStudy(study.hpm).run(windows_per_group=windows_per_group)

    return body


def test_fig10_campaign_wallclock(bench_json):
    """Wall-clock of the fig10 correlation workload, optimized vs reference."""
    config = quick_config()
    windows_per_group = 20
    body = _campaign_body(windows_per_group)
    opt = best_of(_campaign_setup(Characterization, config), body, REPS)
    ref = best_of(
        _campaign_setup(_ReferenceCharacterization, config), body, REPS
    )
    _versus(
        "fig10_campaign",
        bench_json,
        opt,
        ref,
        {"scale": "quick", "windows_per_group": windows_per_group},
    )
    # The acceptance bar: a measured wall-clock reduction.
    assert opt["best_s"] < ref["best_s"]
