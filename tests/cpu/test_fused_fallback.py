"""Direct coverage of the fused-kernel fallback guard.

``SliceRunner._can_fuse`` decides between the fused kernel (reaches
past public methods into way lists and predictor tables) and
``_run_generic`` (the readable specification, driving the public
interfaces).  Nothing else in the suite exercised the generic path via
a *subclassed* collaborator, so a stale fallback would only surface in
user code.  These tests force the generic path through behaviour-
preserving subclasses and assert it stays bit-identical to the pinned
:class:`~repro.cpu.reference.ReferenceCoreModel`.
"""

import dataclasses
import random

import pytest

from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.cpu import regions as R
from repro.cpu.branch import BranchUnit
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.pipeline import PipelineAccountant
from repro.cpu.phases import (
    PhaseDescriptor,
    gc_mark_profile,
    idle_profile,
    kernel_profile,
)
from repro.cpu.reference import ReferenceCoreModel, ReferenceSetAssociativeCache
from repro.cpu.regions import AddressSpace, Region
from repro.cpu.sources import DataSource, InstSource
from repro.cpu.stream import SliceRunner
from repro.util.rng import RngFactory

N_WINDOWS = 4
SEED = 1311


class PassthroughBranchUnit(BranchUnit):
    """Subclass with unchanged behaviour: must still force the fallback."""


class PassthroughCache(SetAssociativeCache):
    """Same — any cache subclass invalidates the fused way-list access."""


class SpyRegion(Region):
    """Unchanged behaviour, but records every beyond-L1 source draw.

    The fused kernel draws sources from precomputed tables, so a region
    subclass must force the generic path, where these methods run.
    """

    #: Class-level: frozen dataclass instances cannot hold the log.
    draws = []

    def pick_source(self, rng):
        SpyRegion.draws.append(self.name)
        return super().pick_source(rng)

    def pick_inst_source(self, rng):
        SpyRegion.draws.append(self.name)
        return super().pick_inst_source(rng)


def _respace(changes, cls=Region):
    """The default layout with every region named in ``changes``
    rebuilt as ``cls``, with the field values given for it."""
    space = AddressSpace.build(MachineConfig(), JvmConfig())
    return AddressSpace(
        [
            cls(**{**vars(space[n]), **changes[n]}) if n in changes else space[n]
            for n in space.names()
        ]
    )


def _build(model_cls, seed=SEED, space=None):
    machine = MachineConfig()
    if space is None:
        space = AddressSpace.build(machine, JvmConfig())
    prof_rng = random.Random(7)
    descriptor = PhaseDescriptor(
        slices=(
            (kernel_profile(prof_rng, space), 0.5),
            (gc_mark_profile(prof_rng, space), 0.3),
            (idle_profile(prof_rng, space), 0.2),
        )
    )
    sampling = SamplingConfig(window_cycles=30000)
    return model_cls(
        machine, space, StaticSchedule(descriptor), sampling, RngFactory(seed)
    )


def _first_runner(core):
    descriptor = core.schedule.descriptor_for(0)
    return core.slice_runner_cls(
        profile=descriptor.slices[0][0],
        space=core.space,
        memory=core.memory,
        translation=core.translation,
        branches=core.branches,
        accountant=core.accountant_cls(core.machine.latencies, random.Random(2)),
        counters=core._bank,
        rng=random.Random(3),
    )


def _hardware_state(core):
    t = core.translation
    return {
        "l1i": (core.memory.l1i.hits, core.memory.l1i.misses),
        "l1d": (core.memory.l1d.hits, core.memory.l1d.misses),
        "ierat": (t.ierat.cache.hits, t.ierat.cache.misses),
        "derat": (t.derat.cache.hits, t.derat.cache.misses),
        "tlb": (t.tlb.data_hits, t.tlb.data_misses, t.tlb.inst_hits, t.tlb.inst_misses),
    }


def _assert_windows_match(core, reference_snaps):
    ref_snaps, ref_hw = reference_snaps
    for w, ref in enumerate(ref_snaps):
        snap = core.execute_window(w)
        assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
    assert _hardware_state(core) == ref_hw


def _swap_erat(core, name, cache_cls, policy):
    """Rebuild one ERAT's cache as ``cache_cls`` with ``policy``."""
    erat = getattr(core.translation, name)
    stock = erat.cache
    erat.cache = cache_cls(stock.n_sets, stock.associativity, policy)


class SubclassedBranchCore(CoreModel):
    branch_unit_cls = PassthroughBranchUnit


@pytest.fixture(scope="module")
def reference_snaps():
    reference = _build(ReferenceCoreModel)
    snaps = [reference.execute_window(w) for w in range(N_WINDOWS)]
    return snaps, _hardware_state(reference)


class TestSubclassForcesGenericPath:
    def test_branch_subclass_disables_fusing(self):
        core = _build(SubclassedBranchCore)
        assert not _first_runner(core)._can_fuse()

    def test_cache_subclass_disables_fusing(self):
        core = _build(CoreModel)
        geo = core.machine.l1d
        core.memory.l1d = PassthroughCache(
            n_sets=core.memory.l1d.n_sets,
            associativity=geo.associativity,
            policy=geo.policy,
        )
        assert not _first_runner(core)._can_fuse()

    def test_instance_patch_disables_fusing(self):
        core = _build(CoreModel)
        original = core.memory.load
        core.memory.load = lambda addr, region: original(addr, region)
        assert not _first_runner(core)._can_fuse()

    def test_stock_core_fuses(self):
        assert _first_runner(_build(CoreModel))._can_fuse()


class TestGenericPathBitIdentical:
    """The forced fallback reproduces the reference windows exactly."""

    def test_branch_subclass_windows(self, reference_snaps):
        ref_snaps, ref_hw = reference_snaps
        core = _build(SubclassedBranchCore)
        for w, ref in enumerate(ref_snaps):
            snap = core.execute_window(w)
            assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
        assert _hardware_state(core) == ref_hw

    def test_cache_subclass_windows(self, reference_snaps):
        ref_snaps, ref_hw = reference_snaps
        core = _build(CoreModel)
        for attr in ("l1i", "l1d"):
            geo = getattr(core.machine, attr)
            stock = getattr(core.memory, attr)
            setattr(
                core.memory,
                attr,
                PassthroughCache(
                    n_sets=stock.n_sets,
                    associativity=geo.associativity,
                    policy=geo.policy,
                ),
            )
        for w, ref in enumerate(ref_snaps):
            snap = core.execute_window(w)
            assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
        assert _hardware_state(core) == ref_hw


class TestInlinedCollaboratorsForceGenericPath:
    """Overrides of what the kernel inlines or tabulates are honoured.

    Each override below behaves like the stock code but records its
    calls: the windows must match the reference exactly *and* the
    override must actually have run.
    """

    @pytest.mark.parametrize("method", ["cover", "on_miss"])
    def test_prefetcher_patch_is_honoured(self, reference_snaps, method):
        core = _build(CoreModel)
        prefetcher = core.memory.prefetcher
        original = getattr(prefetcher, method)
        calls = []

        def spy(line):
            calls.append(line)
            return original(line)

        setattr(prefetcher, method, spy)
        assert not _first_runner(core)._can_fuse()
        _assert_windows_match(core, reference_snaps)
        assert calls

    # The kernel profile (first slice) loads from native_data and
    # fetches from code_kernel.
    @pytest.mark.parametrize("name", [R.NATIVE_DATA, R.CODE_KERNEL])
    def test_region_subclass_is_honoured(self, reference_snaps, name):
        SpyRegion.draws.clear()
        core = _build(CoreModel, space=_respace({name: {}}, SpyRegion))
        assert not _first_runner(core)._can_fuse()
        _assert_windows_match(core, reference_snaps)
        assert name in SpyRegion.draws


class TestTranslationCacheSwapsForceGenericPath:
    """The kernel probes the ERAT way lists itself, always applies LRU,
    and keeps per-call trackers that assume three distinct translation
    caches; any other cache in either ERAT must send the windows down
    the generic path, which honours it."""

    @staticmethod
    def _assert_matches_swapped_reference(core, reference):
        assert not _first_runner(core)._can_fuse()
        for w in range(N_WINDOWS):
            snap = core.execute_window(w)
            assert dict(snap.counts) == dict(reference.execute_window(w).counts)
        assert _hardware_state(core) == _hardware_state(reference)

    @pytest.mark.parametrize("name", ["ierat", "derat"])
    def test_fifo_erat(self, reference_snaps, name):
        core = _build(CoreModel)
        _swap_erat(core, name, SetAssociativeCache, "fifo")
        reference = _build(ReferenceCoreModel)
        _swap_erat(reference, name, ReferenceSetAssociativeCache, "fifo")
        self._assert_matches_swapped_reference(core, reference)
        if name == "derat":
            # FIFO changes the DERAT's windows, so the match is not
            # vacuous (the IERAT misses too rarely in four windows).
            assert _hardware_state(core) != reference_snaps[1]

    def test_shared_erat_cache(self, reference_snaps):
        core = _build(CoreModel)
        reference = _build(ReferenceCoreModel)
        for model in (core, reference):
            model.translation.derat.cache = model.translation.ierat.cache
        self._assert_matches_swapped_reference(core, reference)
        assert _hardware_state(core) != reference_snaps[1]

    @pytest.mark.parametrize("name", ["ierat", "derat"])
    def test_subclassed_erat(self, reference_snaps, name):
        core = _build(CoreModel)
        _swap_erat(core, name, PassthroughCache, "lru")
        assert not _first_runner(core)._can_fuse()
        _assert_windows_match(core, reference_snaps)


class TestEmptyBackingRejected:
    """A region that would have to source a miss from nothing is a
    construction error, not an IndexError deep inside a window."""

    @pytest.mark.parametrize("model_cls", [CoreModel, ReferenceCoreModel])
    def test_load_mix_region_without_backing(self, model_cls):
        core = _build(model_cls, space=_respace({R.NATIVE_DATA: {"backing": ()}}))
        with pytest.raises(ValueError, match="'kernel'.*'native_data'"):
            _first_runner(core)

    @pytest.mark.parametrize("model_cls", [CoreModel, ReferenceCoreModel])
    def test_code_region_without_inst_backing(self, model_cls):
        space = _respace({R.CODE_KERNEL: {"inst_backing": ()}})
        core = _build(model_cls, space=space)
        with pytest.raises(ValueError, match="'kernel'.*'code_kernel'"):
            _first_runner(core)


class TestShortBackingFallsThrough:
    """Weights summing below 1: ``pick_source`` returns the last source
    for a draw past the total, and the kernel's bisect must agree."""

    def test_windows_match_reference(self):
        data = ((DataSource.L2, 0.25), (DataSource.MEM, 0.25))
        inst = ((InstSource.L2, 0.3), (InstSource.L3, 0.3))
        short = {R.NATIVE_DATA: {"backing": data}, R.CODE_KERNEL: {"inst_backing": inst}}
        fused = _build(CoreModel, space=_respace(short))
        reference = _build(ReferenceCoreModel, space=_respace(short))
        assert _first_runner(fused)._can_fuse()
        for w in range(N_WINDOWS):
            snap = fused.execute_window(w)
            assert dict(snap.counts) == dict(reference.execute_window(w).counts)
        assert _hardware_state(fused) == _hardware_state(reference)


class TestTablesKeyedBySpaceAndLatencies:
    """A core's region tables are never read for another layout."""

    @staticmethod
    def _rows(core, space, lat, tables):
        runner = SliceRunner(
            profile=kernel_profile(random.Random(7), space),
            space=space,
            memory=core.memory,
            translation=core.translation,
            branches=core.branches,
            accountant=PipelineAccountant(lat, random.Random(2)),
            counters=core._bank,
            rng=random.Random(3),
            tables=tables,
        )
        return runner._load_rows, runner._store_rows, runner._inst_row

    def test_foreign_space_or_latencies_rebuild(self):
        core = _build(CoreModel)
        lat = core.machine.latencies
        # A smaller DB2 buffer pool moves every later region; slower
        # memory and L2 change the penalties of the kernel's sources.
        other_space = AddressSpace.build(core.machine, JvmConfig(), db_buffer_mb=64)
        other_lat = dataclasses.replace(lat, data_from_mem=999.0, inst_from_l2=99.0)
        for space, latencies in ((other_space, lat), (core.space, other_lat)):
            fresh = self._rows(core, space, latencies, None)
            assert self._rows(core, space, latencies, core._kernel_tables) == fresh
            assert fresh != self._rows(core, core.space, lat, None)
