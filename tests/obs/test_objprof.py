"""Tests for object-centric heap profiling (:mod:`repro.obs.objprof`).

Three layers:

* the integer machinery (largest-remainder apportionment, the site
  catalog's share structure, the per-heap byte ledger) — exactness is
  the contract, so the assertions are ``==`` on byte counts;
* address→site attribution at the kernel level: a slice run under a
  profiler charges *every* data-side miss event the counter bank sees
  to some site, on both the fused kernel and the generic fallback;
* the report: deterministic DJXPerf-style ranking, metrics export and
  the data-driven what-if scenarios built from a profile.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ExperimentConfig,
    GcCostModel,
    JvmConfig,
    MachineConfig,
    PipelineLatencies,
)
from repro.cpu import regions as R
from repro.cpu.branch import BranchUnit
from repro.cpu.hierarchy import MemorySystem
from repro.cpu.phases import gc_mark_profile, interpreter_profile, kernel_profile
from repro.cpu.pipeline import PipelineAccountant
from repro.cpu.regions import AddressSpace
from repro.cpu.sources import DataSource
from repro.cpu.stream import SliceRunner
from repro.cpu.translation import TranslationUnit
from repro.hpm.counters import CounterBank
from repro.hpm.events import Event
from repro.jvm.heap import FlatHeap
from repro.jvm.methods import MethodRegistry
from repro.jvm.runtime import MutatorIntensity, mutator_profiles
from repro.obs import objprof
from repro.obs.metrics import MetricsRegistry, snapshot_delta
from repro.util.rng import RngFactory
from repro.util.units import MB


# ---------------------------------------------------------------------------
# apportion
# ---------------------------------------------------------------------------


class TestApportion:
    def test_exact_sum_and_proportionality(self):
        parts = objprof.apportion(100, [1.0, 1.0, 2.0])
        assert parts == [25, 25, 50]

    def test_remainders_go_to_largest_fractions(self):
        # 10 * [.55, .25, .20] = [5.5, 2.5, 2.0]; the spare unit goes
        # to the largest remainder (tie .5 vs .5 broken by index).
        assert objprof.apportion(10, [0.55, 0.25, 0.20]) == [6, 2, 2]

    def test_all_zero_weights_fall_to_first(self):
        assert objprof.apportion(7, [0.0, 0.0]) == [7, 0]

    def test_zero_total(self):
        assert objprof.apportion(0, [3.0, 1.0]) == [0, 0]

    def test_rejects_negative_total_and_weights(self):
        with pytest.raises(ValueError):
            objprof.apportion(-1, [1.0])
        with pytest.raises(ValueError):
            objprof.apportion(1, [1.0, -0.5])
        with pytest.raises(ValueError):
            objprof.apportion(1, [])

    @settings(max_examples=80, deadline=None)
    @given(
        total=st.integers(0, 10**9),
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
    )
    def test_parts_always_sum_exactly(self, total, weights):
        parts = objprof.apportion(total, weights)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)


# ---------------------------------------------------------------------------
# Catalog structure
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_heap_shares_sum_to_one(self):
        heap = [s for s in objprof.default_catalog() if s.kind == "heap"]
        assert sum(s.alloc_share for s in heap) == pytest.approx(1.0)
        assert sum(s.live_share for s in heap) == pytest.approx(1.0)

    def test_heap_region_weight_columns_sum_to_one(self):
        heap = [s for s in objprof.default_catalog() if s.kind == "heap"]
        strata = {
            R.HEAP_HOT, R.HEAP_MEDIUM, R.HEAP_COLD,
            R.HEAP_ALLOC, R.HEAP_SHARED,
        }
        for region_name in strata:
            column = sum(s.region_weights.get(region_name, 0.0) for s in heap)
            assert column == pytest.approx(1.0), region_name

    def test_infra_sites_own_their_regions(self):
        catalog = {s.name: s for s in objprof.default_catalog()}
        assert catalog["stack_frames"].region_weights == {R.STACK: 1.0}
        assert catalog["db_buffer_pool"].region_weights == {R.DB_BUFFER: 1.0}
        assert catalog["gc_metadata"].region_weights == {R.GC_BITMAP: 1.0}

    def test_invalid_kind_and_lifetime_rejected(self):
        with pytest.raises(ValueError):
            objprof.SiteClass(name="x", kind="bogus", lifetime_class="request",
                              description="")
        with pytest.raises(ValueError):
            objprof.SiteClass(name="x", kind="heap", lifetime_class="eternal",
                              description="")

    def test_duplicate_site_names_rejected(self):
        site = objprof.SiteClass(
            name="dup", kind="heap", lifetime_class="request", description=""
        )
        with pytest.raises(ValueError):
            objprof.ObjProfiler([site, site])


# ---------------------------------------------------------------------------
# The byte ledger
# ---------------------------------------------------------------------------


def make_heap(heap_mb=128):
    return FlatHeap(JvmConfig(heap_mb=heap_mb, gc=GcCostModel()))


class TestSiteLedger:
    def test_heap_without_profiler_has_no_ledger(self):
        assert make_heap()._objprof_ledger is None

    def test_ledger_reconciles_through_alloc_gc_compact(self):
        with objprof.profile_objects() as prof:
            heap = make_heap()
            ledger = heap._objprof_ledger
            assert ledger is not None
            assert prof.ledgers == [ledger]
            heap.set_live(20 * MB)
            heap.allocate(30 * MB)
            heap.allocate(7 * MB + 12345)
            assert ledger.reconcile() == {
                "fresh": True, "dark": True, "live": True
            }
            ledger.note_gc(10.0)
            heap.reclaim(surviving_fraction=0.23, dark_matter_added=3 * MB + 7)
            assert ledger.reconcile() == {
                "fresh": True, "dark": True, "live": True
            }
            heap.allocate(5 * MB)
            ledger.note_gc(20.0)
            heap.reclaim(surviving_fraction=0.0, dark_matter_added=999)
            heap.compact()
            assert ledger.reconcile() == {
                "fresh": True, "dark": True, "live": True
            }
            assert sum(ledger.dark) == 0
            # Allocation totals only ever grow.
            assert sum(ledger.allocated_total) == 42 * MB + 12345

    def test_lifetimes_recorded_for_dying_bytes(self):
        with objprof.profile_objects():
            heap = make_heap()
            ledger = heap._objprof_ledger
            heap.allocate(10 * MB)
            ledger.note_gc(12.0)
            heap.reclaim(surviving_fraction=0.1, dark_matter_added=0)
            dead = 10 * MB - int(10 * MB * 0.1)
            assert sum(ledger.lifetime_bytes) == dead
            assert sum(sum(b) for b in ledger.lifetime_buckets) == dead
            # Transaction-scoped churn dies much younger than session
            # state relative to the same GC interval.
            names = [s.name for s in ledger.sites]
            churn = names.index("string_churn")
            session = names.index("session_state")
            mean = [
                ledger.lifetime_weighted_s[i] / ledger.lifetime_bytes[i]
                for i in (churn, session)
            ]
            assert mean[0] < mean[1]

    def test_first_gc_without_note_records_no_lifetimes(self):
        with objprof.profile_objects():
            heap = make_heap()
            ledger = heap._objprof_ledger
            heap.allocate(MB)
            heap.reclaim(0.0, 0)  # no note_gc -> interval unknown
            assert sum(ledger.lifetime_bytes) == 0
            assert ledger.reconcile()["fresh"]


# ---------------------------------------------------------------------------
# Address → site attribution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def space():
    return AddressSpace.build(MachineConfig(), JvmConfig())


class TestExtents:
    def test_heap_region_extents_cover_exactly(self, space):
        prof = objprof.ObjProfiler()
        region = space[R.HEAP_COLD]
        # Every byte of the region resolves to some heap site, and the
        # extent boundaries are interior (0 < b < size).
        _, bounds, rows = prof._build_extents(region)
        assert len(rows) == len(bounds) + 1
        assert all(0 < b < region.size_bytes for b in bounds)
        first = prof.site_of(region, region.base)
        last = prof.site_of(region, region.end - 1)
        assert first.kind == "heap" and last.kind == "heap"

    def test_charge_lands_on_site_of(self, space):
        prof = objprof.ObjProfiler()
        region = space[R.HEAP_ALLOC]
        rng = random.Random(7)
        for _ in range(50):
            addr = region.random_address(rng)
            site = prof.site_of(region, addr)
            before = prof.counts[site.name][objprof.SLOT_LD_MISS]
            prof.charge(region, addr, objprof.SLOT_LD_MISS)
            assert prof.counts[site.name][objprof.SLOT_LD_MISS] == before + 1

    def test_infra_region_charges_owner(self, space):
        prof = objprof.ObjProfiler()
        region = space[R.DB_BUFFER]
        prof.charge(region, region.base + 123456, objprof.SLOT_ST_MISS)
        assert prof.counts["db_buffer_pool"][objprof.SLOT_ST_MISS] == 1

    def test_unclaimed_region_falls_to_other(self):
        region = R.Region(
            name="mystery", base=0, size_bytes=4096, page_bytes=4096
        )
        prof = objprof.ObjProfiler()
        prof.charge(region, 17, objprof.SLOT_DERAT_MISS)
        assert (
            prof.counts[objprof.OTHER_SITE][objprof.SLOT_DERAT_MISS] == 1
        )

    def test_extents_rebuilt_for_new_region_object(self, space):
        # A fresh AddressSpace (new Region instances, same names) must
        # not be attributed through stale cached extents.
        prof = objprof.ObjProfiler()
        r1 = space[R.HEAP_COLD]
        prof.charge(r1, r1.base, objprof.SLOT_LD_MISS)
        other_space = AddressSpace.build(
            MachineConfig(), JvmConfig(live_set_mb=64)
        )
        r2 = other_space[R.HEAP_COLD]
        assert r2 is not r1
        prof.charge(r2, r2.base, objprof.SLOT_LD_MISS)
        assert prof._extents[R.HEAP_COLD][0] is r2


# ---------------------------------------------------------------------------
# Kernel-level exact reconciliation (fused and generic paths)
# ---------------------------------------------------------------------------


class PassthroughBranchUnit(BranchUnit):
    """Behaviour-preserving subclass: forces the generic stream path."""


@pytest.fixture(scope="module")
def was_jited(space):
    """A mutator profile: its loads reach every heap stratum, the
    shared heap (remote-L2 sources) and the DB2 buffer pool."""
    registry = MethodRegistry(JvmConfig(), space, random.Random(5))
    profiles = mutator_profiles(registry, space, random.Random(5), MutatorIntensity())
    return profiles["was_jited"]


def _run_profiled_slice(space, mutator, cycles=60000, seed=11, force_generic=False):
    machine = MachineConfig()
    bank = CounterBank()
    rngs = RngFactory(seed)
    memory = MemorySystem(machine, bank, rngs.stream("b"))
    translation = TranslationUnit(machine.translation)
    branch_cls = PassthroughBranchUnit if force_generic else BranchUnit
    branches = branch_cls(machine.branch)
    prof_rng = random.Random(5)
    with objprof.profile_objects() as prof:
        for profile in (
            kernel_profile(prof_rng, space),
            interpreter_profile(prof_rng, space),
            gc_mark_profile(prof_rng, space),
            mutator,
        ):
            runner = SliceRunner(
                profile, space, memory, translation, branches,
                PipelineAccountant(machine.latencies, rngs.stream("p")),
                bank, rngs.stream("s"),
            )
            runner.run_until(cycles)
    return bank.snapshot(), prof


@pytest.mark.parametrize("force_generic", [False, True])
def test_every_bank_miss_event_is_attributed(space, was_jited, force_generic):
    """Per-site sums equal the counter bank's totals *exactly* — every
    DERAT/DTLB/L1D miss and every sourced load is charged to a site."""
    snap, prof = _run_profiled_slice(space, was_jited, force_generic=force_generic)
    profile = prof.build_profile()
    assert profile.total(objprof.SLOT_LD_MISS) == snap[Event.PM_LD_MISS_L1]
    assert profile.total(objprof.SLOT_ST_MISS) == snap[Event.PM_ST_MISS_L1]
    assert profile.total(objprof.SLOT_DERAT_MISS) == snap[Event.PM_DERAT_MISS]
    assert profile.total(objprof.SLOT_DTLB_MISS) == snap[Event.PM_DTLB_MISS]
    for src in DataSource:
        assert (
            profile.total(objprof.SLOT_OF_SOURCE[src]) == snap[src.event]
        ), src
    # Non-vacuity: the slices actually missed.
    assert snap[Event.PM_LD_MISS_L1] > 0
    assert snap[Event.PM_DERAT_MISS] > 0


def test_fused_and_generic_attribute_identically(space, was_jited):
    """The two kernels charge the same sites the same amounts."""
    snap_f, prof_f = _run_profiled_slice(space, was_jited, force_generic=False)
    snap_g, prof_g = _run_profiled_slice(space, was_jited, force_generic=True)
    assert {e.name: v for e, v in snap_f.counts.items()} == \
        {e.name: v for e, v in snap_g.counts.items()}
    assert prof_f.counts == prof_g.counts


# ---------------------------------------------------------------------------
# Report, metrics export, scenarios
# ---------------------------------------------------------------------------


def _loaded_profiler():
    """A profiler with a deterministic charge pattern and one heap."""
    prof = objprof.ObjProfiler()
    space = AddressSpace.build(MachineConfig(), JvmConfig())
    rng = random.Random(3)
    for region_name, n in ((R.HEAP_COLD, 400), (R.HEAP_ALLOC, 200),
                           (R.DB_BUFFER, 100)):
        region = space[region_name]
        for _ in range(n):
            addr = region.random_address(rng)
            prof.charge(region, addr, objprof.SLOT_LD_MISS)
            prof.charge(
                region, addr, objprof.SLOT_OF_SOURCE[DataSource.MEM]
            )
    previous = objprof.install(prof)
    try:
        heap = FlatHeap(JvmConfig(heap_mb=256))
        heap.set_live(100 * MB)
        heap.allocate(40 * MB)
    finally:
        objprof.install(previous)
    return prof


class TestProfileAndScenarios:
    def test_ranking_is_deterministic_and_heap_only(self):
        profile = _loaded_profiler().build_profile(PipelineLatencies())
        top = profile.top_inefficient(3)
        assert all(r.site.kind == "heap" for r in top)
        assert [r.site.name for r in top] == [
            r.site.name
            for r in _loaded_profiler()
            .build_profile(PipelineLatencies())
            .top_inefficient(3)
        ]
        scores = [r.miss_cycles for r in top]
        assert scores == sorted(scores, reverse=True)

    def test_miss_cycles_weight_by_latency(self):
        prof = _loaded_profiler()
        lat = PipelineLatencies()
        profile = prof.build_profile(lat)
        for report in profile.reports:
            expected = (
                report.mem_sourced * lat.data_from_mem
            )
            assert report.miss_cycles == pytest.approx(expected)

    def test_export_metrics_and_windowed_delta(self):
        prof = _loaded_profiler()
        reg_a = MetricsRegistry()
        prof.export_metrics(reg_a)
        snap_a = reg_a.snapshot()
        # More charges arrive, then a second export into a fresh
        # registry; the delta isolates the second batch.
        space = AddressSpace.build(MachineConfig(), JvmConfig())
        region = space[R.DB_BUFFER]
        for _ in range(25):
            prof.charge(region, region.base, objprof.SLOT_LD_MISS)
        reg_b = MetricsRegistry()
        prof.export_metrics(reg_b)
        delta = snapshot_delta(snap_a, reg_b.snapshot())
        key = "objprof.site.ld_miss{site=db_buffer_pool}"
        assert delta["counters"][key] == 25

    def test_objprof_scenarios_target_the_profile(self):
        from repro.core.whatif import objprof_scenarios
        from repro.cpu.regions import HEAP_COLD_MEM_FRACTION

        profile = _loaded_profiler().build_profile(PipelineLatencies())
        scenarios = {s.name: s for s in objprof_scenarios(profile)}
        assert set(scenarios) == {"shrink-top-site", "segregate-churn"}
        top = profile.top_inefficient(1)[0]
        assert top.site.name in scenarios["shrink-top-site"].description

        base = ExperimentConfig()
        shrunk = scenarios["shrink-top-site"].apply(base)
        assert shrunk.jvm.cold_mem_fraction is not None
        assert shrunk.jvm.cold_mem_fraction < HEAP_COLD_MEM_FRACTION
        segregated = scenarios["segregate-churn"].apply(base)
        assert segregated.jvm.churn_segregated is True
        assert (
            segregated.jvm.gc.dark_matter_per_sweep_fraction
            <= base.jvm.gc.dark_matter_per_sweep_fraction
        )

    def test_scenarios_require_heap_sites(self):
        from repro.core.whatif import objprof_scenarios

        with pytest.raises(ValueError):
            objprof_scenarios(objprof.SiteProfile(reports=[]))


class TestSessionDiscipline:
    def test_profile_objects_restores_previous(self):
        assert objprof.active() is None
        with objprof.profile_objects() as outer:
            assert objprof.active() is outer
            with objprof.profile_objects() as inner:
                assert objprof.active() is inner
            assert objprof.active() is outer
        assert objprof.active() is None
