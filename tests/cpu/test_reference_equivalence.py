"""Determinism regression: the kernel rewrite changed no golden output.

Runs the optimized :class:`~repro.cpu.core_model.CoreModel` and the
pinned pre-optimization :class:`~repro.cpu.reference.ReferenceCoreModel`
side by side on a fixed seed and asserts every per-window counter
snapshot and every piece of persistent hardware state (cache and TLB
hit/miss totals) is identical — the optimized kernels must draw the
same RNG sequence and add the same floats in the same order as the
original structures.
"""

import random

import pytest

from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.phases import (
    PhaseDescriptor,
    gc_mark_profile,
    idle_profile,
    kernel_profile,
)
from repro.cpu.reference import ReferenceCoreModel
from repro.cpu.regions import AddressSpace
from repro.util.rng import RngFactory

N_WINDOWS = 8


def _build(model_cls, seed):
    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())
    prof_rng = random.Random(7)
    kernel = kernel_profile(prof_rng, space)
    gc = gc_mark_profile(prof_rng, space)
    idle = idle_profile(prof_rng, space)
    descriptor = PhaseDescriptor(slices=((kernel, 0.5), (gc, 0.3), (idle, 0.2)))
    sampling = SamplingConfig(window_cycles=30000)
    return model_cls(
        machine, space, StaticSchedule(descriptor), sampling, RngFactory(seed)
    )


def _ways(cache):
    """Every set's resident blocks in replacement order, victim first."""
    sets = cache.sets if isinstance(cache, SetAssociativeCache) else cache._sets
    return [list(ways) for ways in sets]


def _full_state(core):
    """Every piece of state the fused kernel writes or draws from.

    The way lists are compared in order: a skipped or extra LRU
    reorder leaves every hit/miss total equal until it changes which
    block a later miss evicts.
    """
    memory, t = core.memory, core.translation
    return {
        "streams": list(memory.prefetcher._streams.items()),
        "runs": list(memory.prefetcher._runs.items()),
        "store_gather": list(memory._store_gather),
        "direction": list(core.branches.direction._table),
        "target": list(core.branches.target._table),
        "l1i": (memory.l1i.hits, memory.l1i.misses, _ways(memory.l1i)),
        "l1d": (memory.l1d.hits, memory.l1d.misses, _ways(memory.l1d)),
        "ierat": (t.ierat.cache.hits, t.ierat.cache.misses, _ways(t.ierat.cache)),
        "derat": (t.derat.cache.hits, t.derat.cache.misses, _ways(t.derat.cache)),
        "tlb": (
            t.tlb.data_hits,
            t.tlb.data_misses,
            t.tlb.inst_hits,
            t.tlb.inst_misses,
            _ways(t.tlb.cache),
        ),
        "rng": [
            rng.getstate()
            for rng in (core._rng_stream, core._rng_backing, core._rng_pipeline)
        ],
    }


@pytest.fixture(scope="module", params=[42, 2007])
def models(request):
    seed = request.param
    optimized = _build(CoreModel, seed)
    reference = _build(ReferenceCoreModel, seed)
    snaps = [
        (optimized.execute_window(w), reference.execute_window(w))
        for w in range(N_WINDOWS)
    ]
    return optimized, reference, snaps


class TestSnapshotsIdentical:
    def test_every_window_bit_identical(self, models):
        _, _, snaps = models
        for w, (opt, ref) in enumerate(snaps):
            assert dict(opt.counts) == dict(ref.counts), f"window {w} diverged"

    def test_nonzero_activity(self, models):
        """Guard against vacuous equality: the windows did real work."""
        _, _, snaps = models
        total = sum(s.instructions for s, _ in snaps)
        assert total > 10_000


class TestHardwareStateIdentical:
    def test_cache_stats(self, models):
        optimized, reference, _ = models
        for attr in ("l1i", "l1d"):
            opt = getattr(optimized.memory, attr)
            ref = getattr(reference.memory, attr)
            assert (opt.hits, opt.misses) == (ref.hits, ref.misses)

    def test_translation_stats(self, models):
        optimized, reference, _ = models
        opt_t, ref_t = optimized.translation, reference.translation
        for erat in ("ierat", "derat"):
            opt_c = getattr(opt_t, erat).cache
            ref_c = getattr(ref_t, erat).cache
            assert (opt_c.hits, opt_c.misses) == (ref_c.hits, ref_c.misses)
        opt_tlb, ref_tlb = opt_t.tlb, ref_t.tlb
        assert (
            opt_tlb.data_hits,
            opt_tlb.data_misses,
            opt_tlb.inst_hits,
            opt_tlb.inst_misses,
        ) == (
            ref_tlb.data_hits,
            ref_tlb.data_misses,
            ref_tlb.inst_hits,
            ref_tlb.inst_misses,
        )

    def test_prefetcher_state(self, models):
        optimized, reference, _ = models
        assert (
            optimized.memory.prefetcher.active_streams
            == reference.memory.prefetcher.active_streams
        )

    def test_full_state(self, models):
        optimized, reference, _ = models
        state = _full_state(optimized)
        assert all(state["derat"][2]) and state["store_gather"]
        assert state == _full_state(reference)


class TestInstrumentedWindowIdentical:
    """An active observability session must not perturb the kernels.

    One window of the optimized model executed *under a session* is
    compared against the uninstrumented reference — the instrumentation
    in the slice runner reads accountant totals and wall time only, so
    the counter snapshot must stay bit-identical while the session
    records real slice activity.
    """

    @pytest.fixture(scope="class")
    def window(self):
        from repro.obs import Observability, observe

        optimized = _build(CoreModel, 2007)
        reference = _build(ReferenceCoreModel, 2007)
        with observe(Observability()) as obs:
            instrumented = optimized.execute_window(0)
        baseline = reference.execute_window(0)
        return instrumented, baseline, obs

    def test_counts_bit_identical(self, window):
        instrumented, baseline, _ = window
        assert dict(instrumented.counts) == dict(baseline.counts)

    def test_session_saw_the_slices(self, window):
        _, _, obs = window
        assert obs.metrics.value("cpu.slices") >= 1
        assert obs.metrics.value("cpu.instructions") > 0
        profiles = {
            dict(s.labels).get("profile")
            for s in obs.tracer.by_category("cpu")
        }
        assert profiles  # every slice span is labeled with its phase


# ---------------------------------------------------------------------------
# The windows `characterize` runs: workload-bridged mutator and GC profiles
# ---------------------------------------------------------------------------

#: Quick-config windows: 20 mutator-only windows (web, was_jited,
#: was_nonjited and db2 slices), then a stretch through the GC at 50-52
#: (gc_mark and gc_sweep slices).
CHARACTERIZE_WINDOWS = (*range(20), *range(47, 52))
CHARACTERIZE_PROFILES = {
    "web", "was_jited", "was_nonjited", "db2", "gc_mark", "gc_sweep",
}


@pytest.fixture(scope="module")
def characterize_models():
    from repro.core.characterization import Characterization
    from repro.experiments.common import quick_config

    cores = []
    for model_cls in (CoreModel, ReferenceCoreModel):
        study = Characterization(quick_config(2007))
        study.core_model_cls = model_cls
        cores.append(study.core)
    fused, reference = cores
    assert type(fused) is CoreModel and type(reference) is ReferenceCoreModel
    seen = set()
    descriptor_for = fused.schedule.descriptor_for

    def recording(window_index):
        descriptor = descriptor_for(window_index)
        seen.update(p.name for p, f in descriptor.slices if f > 0)
        return descriptor

    fused.schedule.descriptor_for = recording
    snaps = []
    for w in CHARACTERIZE_WINDOWS:
        snaps.append((fused.execute_window(w), reference.execute_window(w)))
    return fused, reference, snaps, seen


class TestCharacterizeWindowsIdentical:
    def test_profiles_covered(self, characterize_models):
        *_, seen = characterize_models
        assert CHARACTERIZE_PROFILES <= seen

    def test_every_window_bit_identical(self, characterize_models):
        _, _, snaps, _ = characterize_models
        for w, (opt, ref) in zip(CHARACTERIZE_WINDOWS, snaps):
            assert dict(opt.counts) == dict(ref.counts), f"window {w} diverged"

    def test_full_hardware_state(self, characterize_models):
        fused, reference, _, _ = characterize_models
        state = _full_state(fused)
        assert state["streams"] and state["runs"] and state["store_gather"]
        assert state == _full_state(reference)


# ---------------------------------------------------------------------------
# The kernel's per-call trackers (last IERAT and DERAT granule, newest
# store-gather line) start from nothing on every call
# ---------------------------------------------------------------------------

#: Windows that fill the ERATs and the store-gather buffer first.
WARM_WINDOWS = 3
#: Cycle budget of the driven runner.
BUDGET = 30000.0


def _warm_runner(model_cls):
    """A runner for the kernel profile on a core warmed by earlier
    windows, drawing from the core's own RNG streams."""
    core = _build(model_cls, 2007)
    for w in range(WARM_WINDOWS):
        core.execute_window(w)
    memory, t = core.memory, core.translation
    assert memory._store_gather
    assert all(_ways(t.ierat.cache)) and all(_ways(t.derat.cache))
    core._bank.reset()
    return core, core.slice_runner_cls(
        profile=core.schedule.descriptor_for(0).slices[0][0],
        space=core.space,
        memory=memory,
        translation=t,
        branches=core.branches,
        accountant=core.accountant_cls(core.machine.latencies, core._rng_pipeline),
        counters=core._bank,
        rng=core._rng_stream,
        tables=core._kernel_tables,
    )


def _drive(model_cls, limits, between=None):
    """Run one warmed runner to each cycle limit in turn, calling
    ``between(core)`` before every call but the first."""
    core, runner = _warm_runner(model_cls)
    for i, limit in enumerate(limits):
        if i and between is not None:
            between(core)
        runner.run_until(limit)
    acct = runner.acct
    return (
        dict(core._bank.snapshot().counts),
        (acct.cycles, acct.completed),
        _full_state(core),
    )


def _reorder_shared_structures(core):
    """What another runner or the generic path may do between two
    calls: empty both ERATs and the store-gather buffer."""
    core.translation.ierat.cache.flush()
    core.translation.derat.cache.flush()
    core.memory._store_gather.clear()


class TestPerCallTrackers:
    THIRDS = (BUDGET / 3, 2 * BUDGET / 3, BUDGET)

    def test_split_calls_equal_reference_and_one_call(self):
        split = _drive(CoreModel, self.THIRDS)
        assert split == _drive(ReferenceCoreModel, self.THIRDS)
        assert split == _drive(CoreModel, (BUDGET,))

    def test_no_tracker_survives_a_call(self):
        """Between many short calls the shared structures are emptied;
        a tracker kept from the previous call would skip a probe that
        now misses."""
        limits = [BUDGET * (i + 1) / 40 for i in range(40)]
        fused = _drive(CoreModel, limits, _reorder_shared_structures)
        assert fused == _drive(ReferenceCoreModel, limits, _reorder_shared_structures)
        assert fused != _drive(CoreModel, limits)


def test_reference_runner_never_fuses():
    reference = _build(ReferenceCoreModel, 1)
    runner = reference.slice_runner_cls(
        profile=kernel_profile(random.Random(1), reference.space),
        space=reference.space,
        memory=reference.memory,
        translation=reference.translation,
        branches=reference.branches,
        accountant=reference.accountant_cls(
            reference.machine.latencies, random.Random(2)
        ),
        counters=reference._bank,
        rng=random.Random(3),
    )
    assert not runner._can_fuse()
