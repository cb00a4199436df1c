"""The synthetic instruction-stream generator.

One :class:`SliceRunner` executes one phase profile's share of a
sampling window against the core's stateful structures (L1s, ERATs,
TLB, predictors, prefetcher).  The generator works at *fetch block*
granularity — a straight-line run of instructions ended by a branch —
which keeps Python overhead per simulated instruction low while still
driving every structure with an individually generated address or
branch event:

* instruction fetch walks real addresses through the active method's
  code, touching the L1I and the I-side translation path line by line;
* each memory operation picks a region from the profile's mix, then an
  address using a page-dwell locality model (repeat touches to a 4 KB
  neighborhood) or a sequential scan pointer (streams);
* each block ends with a conditional or indirect branch resolved by
  the real predictor tables;
* LARX/STCX pairs and SYNCs are injected at the profile's densities
  (Section 4.2.4 of the paper).

Determinism: all draws come from the single ``random.Random`` passed
in; no global state.

Kernel structure
----------------
:meth:`SliceRunner.run_until` is the simulator's single hottest loop —
every modeled instruction, memory access and branch passes through it —
so the whole per-block pipeline (I-fetch, translation, L1 probes,
prefetch cover, branch resolution, cycle accounting) is inlined into
one function body operating on locally-bound state:

* cache probes run directly against the way lists of
  :class:`repro.cpu.cache.SetAssociativeCache` (index 0 = victim, last
  = MRU — the documented kernel layout), and the stream prefetcher's
  detector runs directly on its dicts;
* everything fixed for a region (bounds, draw widths, page flags, the
  backing distribution as cumulative thresholds with each source's
  counter slot and penalty) comes from :class:`KernelTables`, built
  once per core; a slice adds only its scan threshold and dwell span;
* weighted draws (region, active unit, data and instruction source)
  run through C ``bisect_right``;
* cycle/dispatch accumulators, cache hit/miss statistics and every
  counter that duplicates one of them live in locals for the duration
  of the call and are flushed back to the accountant, the caches and
  ``CounterBank.data`` on exit; the rest are incremented by slot index;
* the stochastic memory, LARX and SYNC counts of a block come from
  tables indexed by its length (:func:`count_table`); the memory
  table is kept per density in :class:`KernelTables`, the two lock
  tables for one call, as their densities change every window.

Three *trackers* let the kernel skip work whose outcome is already
known.  ``ierat_last`` and ``derat_last`` hold the granule the IERAT
and the DERAT probed last, and ``gather_last`` the line the last store
wrote into the store-gather buffer.  Each probe or store leaves its
block at the most-recent end of its set or buffer, and within one call
only instruction fetch probes the IERAT, only loads and stores the
DERAT and only stores the gather buffer.  So a repeat of the tracked
block is an MRU hit that reorders nothing, and its probe is skipped;
the reference and the hit still count.  Any other ERAT probe tests the
MRU way first, so the set is scanned only for an older way or a miss.
The guarantee covers one call only: between calls the generic path or
another runner may reorder these structures.  The trackers are
therefore locals, set to -1 on entry and never stored, and
:meth:`SliceRunner._can_fuse` admits only three distinct stock
translation caches with LRU ERATs.

The float additions into the accountant's ``cycles`` happen in exactly
the order the un-inlined implementation performs them, and the RNG is
drawn in exactly the same sequence, so the kernel is bit-identical to
the pinned reference in :mod:`repro.cpu.reference` — the equivalence
is asserted by tests and by ``benchmarks/test_core_kernels.py``.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from math import log as _log
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.config import PipelineLatencies
from repro.cpu.branch import BranchUnit
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.hierarchy import MemorySystem
from repro.cpu.phases import CodeUnit, PhaseProfile
from repro.cpu.prefetch import StreamPrefetcher
from repro.cpu.pipeline import PipelineAccountant
from repro.cpu.regions import AddressSpace, Region
from repro.cpu.sources import DataSource, InstSource
from repro.cpu.translation import TranslationUnit, _Erat, _UnifiedTlb
from repro.hpm.counters import CounterBank
from repro.hpm.events import EVENT_INDEX, Event
from repro.obs import objprof as _objprof
from repro.obs import runtime as _obs
from repro.obs.trace import WALL

#: Bytes per instruction on the modeled ISA (fixed-width PowerPC).
INSTR_BYTES = 4
#: Sequential scan pointers advance by this many bytes per fresh load.
SEQ_LOAD_STEP = 128
#: ... and per fresh store (allocation writes several words per line).
SEQ_STORE_STEP = 64
#: Probability an STCX fails (brief contention; the paper finds
#: "relatively little lock contention").
STCX_FAIL_P = 0.015
#: Mean scan-chunk length in accesses (see the scan branch of the
#: address picker in ``run_until``).
SCAN_CHUNK = 24.0
_INV_SCAN_CHUNK = 1.0 / SCAN_CHUNK
#: Longest fetch block, in instructions: ``1 + min(draw, 64)``.
MAX_BLOCK = 65

# Counter slot indices for every event this kernel touches.
_IERAT_MISS = EVENT_INDEX[Event.PM_IERAT_MISS]
_ITLB_MISS = EVENT_INDEX[Event.PM_ITLB_MISS]
_DERAT_MISS = EVENT_INDEX[Event.PM_DERAT_MISS]
_DTLB_MISS = EVENT_INDEX[Event.PM_DTLB_MISS]
_LD_REF = EVENT_INDEX[Event.PM_LD_REF_L1]
_LD_MISS = EVENT_INDEX[Event.PM_LD_MISS_L1]
_ST_REF = EVENT_INDEX[Event.PM_ST_REF_L1]
_ST_MISS = EVENT_INDEX[Event.PM_ST_MISS_L1]
_L1_PREF = EVENT_INDEX[Event.PM_L1_PREF]
_L2_PREF = EVENT_INDEX[Event.PM_L2_PREF]
_STREAM_ALLOC = EVENT_INDEX[Event.PM_STREAM_ALLOC]
_INST_FROM_L1 = EVENT_INDEX[Event.PM_INST_FROM_L1]
_LARX = EVENT_INDEX[Event.PM_LARX]
_STCX = EVENT_INDEX[Event.PM_STCX]
_STCX_FAIL = EVENT_INDEX[Event.PM_STCX_FAIL]
_SYNC_CNT = EVENT_INDEX[Event.PM_SYNC_CNT]
_BR_CMPL = EVENT_INDEX[Event.PM_BR_CMPL]
_BR_MPRED_CR = EVENT_INDEX[Event.PM_BR_MPRED_CR]
_BR_INDIRECT = EVENT_INDEX[Event.PM_BR_INDIRECT]
_BR_MPRED_TA = EVENT_INDEX[Event.PM_BR_MPRED_TA]

# Method names whose presence in an instance __dict__ means the object
# has been instance-patched (e.g. a test spy) — the fused kernel would
# bypass the patch, so SliceRunner falls back to the generic path.
_PATCHED_MEMORY_METHODS = frozenset({"load", "store", "fetch"})
_PATCHED_TRANSLATION_METHODS = frozenset(
    {"translate_data", "translate_inst", "translate_data_code", "translate_inst_code"}
)
_PATCHED_BRANCH_METHODS = frozenset({"conditional", "indirect"})
_PATCHED_PREFETCH_METHODS = frozenset({"cover", "on_miss"})
_PATCHED_ACCT_METHODS = frozenset(
    {
        "add_instructions",
        "charge_load",
        "charge_store",
        "charge_stream_alloc",
        "charge_fetch",
        "charge_data_translation",
        "charge_inst_translation",
        "charge_conditional_mispredict",
        "charge_target_mispredict",
        "charge_sync",
        "charge_stcx_fail",
    }
)

T = TypeVar("T")


def _weighted_cum(pairs: Sequence[Tuple[T, float]]) -> Tuple[List[T], List[float]]:
    items = [x for x, _ in pairs]
    cum: List[float] = []
    acc = 0.0
    for _, w in pairs:
        acc += w
        cum.append(acc)
    return items, cum


def count_table(density: float) -> List[Tuple[int, float]]:
    """``(int(e), e - int(e))`` for ``e = k * density``, indexed by the
    block length ``k``: the whole and fractional parts of a stochastic
    count, computed with the same float operations as
    :meth:`SliceRunner._stochastic_count` performs per block."""
    table = []
    for k in range(MAX_BLOCK + 1):
        e = k * density
        n = int(e)
        table.append((n, e - n))
    return table


class KernelTables:
    """Per-region constants of the fused kernel, built once per core.

    One row per region of ``space``, with the penalties of ``lat``
    folded in.  A backing distribution becomes cumulative thresholds,
    accumulated with the same ``acc += p`` as :meth:`Region.pick_source`,
    so ``bisect_right`` over them returns the source that method would;
    each entry carries what a draw of it charges.  A
    :class:`SliceRunner` only reads tables built for its own address
    space and latency table objects, so no row is ever read for
    another layout.
    """

    def __init__(self, space: AddressSpace, lat: PipelineLatencies):
        self.space = space
        self.lat = lat
        # Exposed penalty per source, mirroring the if-chains of
        # PipelineAccountant.charge_load and charge_fetch.
        load_pen = {
            DataSource.L2: lat.data_from_l2,
            DataSource.L25_SHR: lat.data_from_l25,
            DataSource.L25_MOD: lat.data_from_l25,
            DataSource.L275_SHR: lat.data_from_l275,
            DataSource.L275_MOD: lat.data_from_l275,
            DataSource.L3: lat.data_from_l3,
            DataSource.L35: lat.data_from_l35,
            DataSource.MEM: lat.data_from_mem,
        }
        inst_pen = {
            InstSource.L1: 0.0,
            InstSource.L2: lat.inst_from_l2,
            InstSource.L3: lat.inst_from_l3,
            InstSource.MEM: lat.inst_from_mem,
        }
        #: name -> (name, base, end, size_bytes, its bit length, n_pages,
        #: its bit length, page_bytes, TLB large-page flag, region,
        #: backing thresholds, backing entries, last entry index); an
        #: entry is (counter slot, penalty, is L2, objprof slot).
        self.data: Dict[str, tuple] = {}
        #: name -> (page_bytes, TLB large-page flag, inst thresholds,
        #: inst entries, last entry index); an entry is (slot, penalty).
        self.inst: Dict[str, tuple] = {}
        for name in space.names():
            r = space[name]
            size = r.size_bytes
            n_pages = r.n_pages
            flag = 1 if r.page_bytes > 4096 else 0
            sources, cum = _weighted_cum(r.backing)
            entries = tuple(
                (
                    EVENT_INDEX[s.event],
                    load_pen[s],
                    s is DataSource.L2,
                    _objprof.SLOT_OF_SOURCE[s],
                )
                for s in sources
            )
            self.data[name] = (
                name, r.base, r.end, size, size.bit_length(), n_pages,
                n_pages.bit_length(), r.page_bytes, flag, r, cum, entries,
                len(cum) - 1,
            )
            sources, cum = _weighted_cum(r.inst_backing)
            entries = tuple((EVENT_INDEX[s.event], inst_pen[s]) for s in sources)
            self.inst[name] = (r.page_bytes, flag, cum, entries, len(cum) - 1)
        #: mem_per_instr -> its count_table.  Each profile kind has a
        #: fixed density, so this holds one table per kind.
        self._mem_counts: Dict[float, List[Tuple[int, float]]] = {}

    def mem_counts(self, density: float) -> List[Tuple[int, float]]:
        """The memory-operation :func:`count_table` of ``density``."""
        table = self._mem_counts.get(density)
        if table is None:
            table = self._mem_counts[density] = count_table(density)
        return table


class SliceRunner:
    """Executes one phase profile until a cycle limit is reached."""

    def __init__(
        self,
        profile: PhaseProfile,
        space: AddressSpace,
        memory: MemorySystem,
        translation: TranslationUnit,
        branches: BranchUnit,
        accountant: PipelineAccountant,
        counters: CounterBank,
        rng: random.Random,
        tables: Optional[KernelTables] = None,
    ):
        self.profile = profile
        self.memory = memory
        self.translation = translation
        self.branches = branches
        self.acct = accountant
        self.bank = counters
        self.rng = rng

        self._code_region = space[profile.code_region]
        self._load_regions, self._load_cum = _weighted_cum(
            [(space[name], w) for name, w in profile.load_mix]
        )
        self._store_regions, self._store_cum = _weighted_cum(
            [(space[name], w) for name, w in profile.store_mix]
        )
        for region in self._load_regions:
            if not region.backing:
                raise ValueError(
                    f"profile {profile.name!r}: load-mix region "
                    f"{region.name!r} has an empty backing distribution"
                )
        if not self._code_region.inst_backing:
            raise ValueError(
                f"profile {profile.name!r}: code region "
                f"{self._code_region.name!r} has an empty inst_backing"
            )
        # The fused kernel reads regions through the tables, never
        # through their methods, so only stock regions may be fused.
        self._stock_regions = all(
            type(r) is Region
            for r in (self._code_region, *self._load_regions, *self._store_regions)
        )

        active = profile.code_pool.sample_active(rng, profile.active_units)
        if not active:
            raise ValueError("phase has no active code units")
        self._active: List[CodeUnit] = active
        self._active_cum: List[float] = []
        acc = 0.0
        for unit in active:
            acc += unit.weight
            self._active_cum.append(acc)

        self._unit: CodeUnit = self._pick_unit()
        self._pos: int = self._unit.base
        self._fetched_line: int = -1

        # Per-region locality state.
        self._granule: Dict[str, int] = {}
        self._seq_ptr: Dict[str, int] = {}
        self._dwell_p = 1.0 - 1.0 / max(1.0, profile.page_dwell)
        self._dwell_override = profile.dwell_span_override

        # The fused kernel's rows: the core's region row behind this
        # profile's two values for it (see _mix_rows).
        lat = accountant.lat
        if tables is None or tables.space is not space or tables.lat is not lat:
            tables = KernelTables(space, lat)
        self._load_rows = self._mix_rows(
            tables, self._load_regions, True, profile.seq_load_fraction,
            SEQ_LOAD_STEP,
        )
        self._store_rows = self._mix_rows(
            tables, self._store_regions, False, profile.seq_store_fraction,
            SEQ_STORE_STEP,
        )
        self._inst_row = tables.inst[self._code_region.name]
        self._tables = tables

    def _mix_rows(
        self,
        tables: KernelTables,
        regions: List[Region],
        is_load: bool,
        seq_fraction: float,
        step: int,
    ) -> List[tuple]:
        """Kernel rows of one mix: (is_load, scan threshold, dwell span,
        scan step) followed by the region's row in ``tables.data``."""
        override = self._dwell_override
        rows = []
        for region in regions:
            span = region.dwell_span
            if override and span > 512 and override < span:
                # A phase override widens bulk regions' locality (GC
                # walks objects, not pages) but never spreads tight
                # regions.
                span = override
            rows.append(
                (is_load, seq_fraction * region.scan_affinity, span, step)
                + tables.data[region.name]
            )
        return rows

    def _pick_unit(self) -> CodeUnit:
        x = self.rng.random() * self._active_cum[-1]
        lo, hi = 0, len(self._active) - 1
        # Inline bisect (hot path).
        while lo < hi:
            mid = (lo + hi) // 2
            if self._active_cum[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return self._active[lo]

    def _switch_unit(self) -> None:
        self._unit = self._pick_unit()
        self._pos = self._unit.base
        self._fetched_line = -1

    # ------------------------------------------------------------------
    # Generic (un-fused) block pipeline
    # ------------------------------------------------------------------
    # These methods are the readable specification of what one block
    # does, and the execution path whenever a collaborating structure
    # is subclassed or instance-patched (tests spy on ``memory.load``,
    # for example).  The fused kernel in :meth:`run_until` draws the
    # RNG in the same sequence and adds the same floats in the same
    # order, so both paths produce bit-identical windows.

    def _fetch_block(self, n_instr: int) -> None:
        """Fetch the I-lines spanned by the next ``n_instr`` instructions."""
        line_bytes = self.memory.machine.l1i.line_bytes
        start = self._pos
        end = self._pos + n_instr * INSTR_BYTES
        line = start // line_bytes
        last_line = (end - 1) // line_bytes
        while line <= last_line:
            if line != self._fetched_line:
                addr = line * line_bytes
                result = self.translation.translate_inst(addr, self._code_region)
                if result.erat_miss:
                    self.bank.add(Event.PM_IERAT_MISS)
                    if result.tlb_miss:
                        self.bank.add(Event.PM_ITLB_MISS)
                self.acct.charge_inst_translation(result)
                source = self.memory.fetch(addr, self._code_region)
                self.acct.charge_fetch(source)
                self._fetched_line = line
            line += 1
        self._pos = end

    def _data_address(self, region: Region, seq_fraction: float, step: int) -> int:
        """Pick an address: scan, dwell, or fresh draw (in that order).

        Scans advance a per-region sequential pointer (table scans,
        copies, the allocation frontier) and are what feed the stream
        prefetcher.  Non-scan accesses mostly dwell inside the region's
        current locality neighborhood; a fresh neighborhood is drawn
        every ``page_dwell`` accesses on average.
        """
        rng = self.rng
        name = region.name
        if rng.random() < seq_fraction * region.scan_affinity:
            ptr = self._seq_ptr.get(name)
            # Scans run in chunks: a real scan is interrupted (next
            # row batch, next object) every ~SCAN_CHUNK accesses and
            # resumes elsewhere, so every burst pays its own stream
            # allocation and leading misses.
            if ptr is None or rng.random() < _INV_SCAN_CHUNK:
                ptr = region.base + rng.randrange(region.n_pages) * region.page_bytes
            addr = ptr
            ptr += step
            if ptr >= region.end:
                ptr = region.base
            self._seq_ptr[name] = ptr
            return addr
        span = region.dwell_span
        if self._dwell_override:
            # A phase override widens bulk regions' locality (GC walks
            # objects, not pages) but never spreads tight regions.
            span = min(self._dwell_override, span) if span > 512 else span
        if rng.random() < self._dwell_p:
            granule = self._granule.get(name)
            if granule is not None:
                return granule + rng.randrange(min(span, region.end - granule))
        addr = region.random_address(rng)
        self._granule[name] = max(region.base, (addr // span) * span)
        return addr

    def _memory_op(self) -> None:
        rng = self.rng
        profile = self.profile
        is_load = rng.random() < profile.load_fraction
        if is_load:
            regions, cum = self._load_regions, self._load_cum
            seq_fraction, step = profile.seq_load_fraction, SEQ_LOAD_STEP
        else:
            regions, cum = self._store_regions, self._store_cum
            seq_fraction, step = profile.seq_store_fraction, SEQ_STORE_STEP

        x = rng.random() * cum[-1]
        lo, hi = 0, len(regions) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        region = regions[lo]

        addr = self._data_address(region, seq_fraction, step)
        # Object-centric attribution (repro.obs.objprof) mirrors the
        # miss classification below: pure side counters, no RNG draws,
        # no float accumulation — bit-identical either way.
        prof = _objprof._ACTIVE
        result = self.translation.translate_data(addr, region)
        if result.erat_miss:
            self.bank.add(Event.PM_DERAT_MISS)
            if prof is not None:
                prof.charge(region, addr, _objprof.SLOT_DERAT_MISS)
            if result.tlb_miss:
                self.bank.add(Event.PM_DTLB_MISS)
                if prof is not None:
                    prof.charge(region, addr, _objprof.SLOT_DTLB_MISS)
        self.acct.charge_data_translation(result)

        if is_load:
            source, outcome = self.memory.load(addr, region)
            self.acct.charge_load(source, outcome.covered)
            if outcome.allocated:
                self.acct.charge_stream_alloc()
            if prof is not None:
                if outcome.covered:
                    prof.charge(region, addr, _objprof.SLOT_COVERED)
                elif source is not None:
                    prof.charge(region, addr, _objprof.SLOT_LD_MISS)
                    prof.charge(region, addr, _objprof.SLOT_OF_SOURCE[source])
        else:
            hit = self.memory.store(addr, region)
            self.acct.charge_store(hit)
            if prof is not None and not hit:
                prof.charge(region, addr, _objprof.SLOT_ST_MISS)

    def _stochastic_count(self, expectation: float) -> int:
        n = int(expectation)
        if self.rng.random() < expectation - n:
            n += 1
        return n

    def _end_of_block_branch(self, block_len: int) -> None:
        rng = self.rng
        profile = self.profile
        unit = self._unit
        self.bank.add(Event.PM_BR_CMPL)

        if profile.hard_branch_fraction and rng.random() < profile.hard_branch_fraction:
            # A data-dependent branch: effectively unpredictable.
            sid = unit.cond_sites[0][0] ^ 0x5A5A5A5A
            taken = rng.random() < 0.5
            if self.branches.conditional(sid, taken):
                self.bank.add(Event.PM_BR_MPRED_CR)
                self.acct.charge_conditional_mispredict()
            if taken:
                self._pos += INSTR_BYTES * rng.randint(2, 20)
                self._fetched_line = -1
            # Fall through to the common control-transfer tail so that
            # hard-branch density does not perturb code-footprint churn.
            if rng.random() < profile.call_fraction or self._pos >= unit.end:
                self._switch_unit()
            return

        if unit.ind_sites and rng.random() < profile.indirect_fraction:
            site = unit.ind_sites[rng.randrange(len(unit.ind_sites))]
            target = site.pick_target(rng)
            self.bank.add(Event.PM_BR_INDIRECT)
            if self.branches.indirect(site.sid, target):
                self.bank.add(Event.PM_BR_MPRED_TA)
                self.acct.charge_target_mispredict()
            # Virtual dispatch usually transfers to another method.
            if rng.random() < 0.6:
                self._switch_unit()
            return

        sid, bias = unit.cond_sites[rng.randrange(len(unit.cond_sites))]
        taken = rng.random() < bias
        if self.branches.conditional(sid, taken):
            self.bank.add(Event.PM_BR_MPRED_CR)
            self.acct.charge_conditional_mispredict()
        if taken:
            if rng.random() < 0.85:
                # Loop back a few block lengths.
                back = block_len * INSTR_BYTES * rng.randint(1, 3)
                self._pos = max(unit.base, self._pos - back)
            else:
                self._pos += INSTR_BYTES * rng.randint(4, 40)
            self._fetched_line = -1
        if rng.random() < profile.call_fraction:
            self._switch_unit()
        elif self._pos >= unit.end:
            self._switch_unit()

    def _run_generic(self, cycle_limit: float) -> None:
        """The un-fused main loop (see the note above _fetch_block)."""
        rng = self.rng
        profile = self.profile
        mean_extra = profile.block_mean - 1.0
        while self.acct.cycles < cycle_limit:
            if mean_extra > 0.0:
                k = 1 + min(int(rng.expovariate(1.0 / mean_extra)), 64)
            else:
                k = 1
            self._fetch_block(k)
            self.acct.add_instructions(k)

            n_mem = self._stochastic_count(k * profile.mem_per_instr)
            for _ in range(n_mem):
                self._memory_op()

            n_larx = self._stochastic_count(k * profile.larx_per_instr)
            for _ in range(n_larx):
                self.bank.add(Event.PM_LARX)
                self.bank.add(Event.PM_STCX)
                if rng.random() < STCX_FAIL_P:
                    self.bank.add(Event.PM_STCX_FAIL)
                    self.acct.charge_stcx_fail()

            n_sync = self._stochastic_count(k * profile.sync_per_instr)
            for _ in range(n_sync):
                self.bank.add(Event.PM_SYNC_CNT)
                self.acct.charge_sync()

            self._end_of_block_branch(k)

    def _can_fuse(self) -> bool:
        """True when every collaborating structure is the stock class.

        The fused kernel reaches past the public methods into the way
        lists, counter slots, prefetcher dicts and predictor tables, and
        reads regions through :class:`KernelTables`, so it is only valid
        when nothing has been subclassed or instance-patched; any
        override falls back to :meth:`_run_generic`, which produces
        bit-identical results through the public interfaces.  The ERAT
        probes always apply LRU and the per-call trackers assume three
        distinct translation caches, so a swapped or shared one falls
        back too.
        """
        memory = self.memory
        translation = self.translation
        branches = self.branches
        if type(translation) is not TranslationUnit:
            return False
        ierat, derat, tlb = translation.ierat, translation.derat, translation.tlb
        return (
            type(memory) is MemorySystem
            and type(ierat) is _Erat
            and type(derat) is _Erat
            and type(tlb) is _UnifiedTlb
            and type(ierat.cache) is SetAssociativeCache
            and type(derat.cache) is SetAssociativeCache
            and ierat.cache.lru
            and derat.cache.lru
            and len({id(ierat.cache), id(derat.cache), id(tlb.cache)}) == 3
            and type(branches) is BranchUnit
            and type(self.acct) is PipelineAccountant
            and type(self.bank) is CounterBank
            and type(memory.l1i) is SetAssociativeCache
            and type(memory.l1d) is SetAssociativeCache
            and type(memory.prefetcher) is StreamPrefetcher
            and self._stock_regions
            and not _PATCHED_MEMORY_METHODS & memory.__dict__.keys()
            and not _PATCHED_PREFETCH_METHODS & memory.prefetcher.__dict__.keys()
            and not _PATCHED_TRANSLATION_METHODS & translation.__dict__.keys()
            and not _PATCHED_BRANCH_METHODS & branches.__dict__.keys()
            and not _PATCHED_ACCT_METHODS & self.acct.__dict__.keys()
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run_until(self, cycle_limit: float) -> None:
        """Generate blocks until the accountant reaches ``cycle_limit``.

        When an observability session is active the invocation is
        wrapped in a wall-clock span and cycle/instruction counters;
        the kernel itself is untouched either way (instrumentation
        reads the accountant before and after, nothing more).
        """
        obs = _obs._ACTIVE
        if obs is None:
            self._run_until_impl(cycle_limit)
            return
        t0 = time.perf_counter()
        cycles_before = self.acct.cycles
        instr_before = self.acct.completed
        try:
            self._run_until_impl(cycle_limit)
        finally:
            obs.metrics.counter("cpu.slices").inc()
            obs.metrics.counter("cpu.cycles").inc(self.acct.cycles - cycles_before)
            obs.metrics.counter("cpu.instructions").inc(
                self.acct.completed - instr_before
            )
            obs.tracer.record(
                "slice",
                "cpu",
                start_s=t0,
                duration_s=time.perf_counter() - t0,
                clock=WALL,
                labels={"profile": self.profile.name},
            )

    def _run_until_impl(self, cycle_limit: float) -> None:
        """The real main loop behind :meth:`run_until`.

        Dispatches to the fused kernel below, where the whole block
        pipeline is inlined; see the module docstring for the kernel
        contract.  Every RNG draw and every float addition into
        ``cycles`` happens in the same order, with the same values, as
        :meth:`_run_generic` and the pinned reference implementation.
        """
        if not self._can_fuse():
            self._run_generic(cycle_limit)
            return
        # --- RNG and profile scalars --------------------------------
        rng = self.rng
        rnd = rng.random
        # randrange/randint/expovariate are inlined at their call
        # sites below — cloning CPython's _randbelow_with_getrandbits
        # and expovariate exactly, so the draw sequence (and every
        # getrandbits width) is bit-identical to calling the methods.
        # Weighted picks run through C bisect_right with hi = n - 1,
        # which returns the hand-rolled search's index, including its
        # fall-through to the last entry.
        getrandbits = rng.getrandbits
        log = _log
        bisect = bisect_right
        inv_scan_chunk = _INV_SCAN_CHUNK
        profile = self.profile
        mean_extra = profile.block_mean - 1.0
        inv_mean_extra = 1.0 / mean_extra if mean_extra > 0.0 else 0.0
        # Stochastic counts by block length.  The LARX and SYNC
        # densities carry per-window lock noise, so their tables live
        # for this call only.
        mem_counts = self._tables.mem_counts(profile.mem_per_instr)
        larx_counts = count_table(profile.larx_per_instr)
        sync_counts = count_table(profile.sync_per_instr)
        load_fraction = profile.load_fraction
        call_frac = profile.call_fraction
        ind_frac = profile.indirect_fraction
        hard_frac = profile.hard_branch_fraction

        # --- counters and cycle accounting --------------------------
        # Events that duplicate a local statistic (references, L1
        # misses, covered loads, translation misses, L1I hits, blocks)
        # are counted in the locals and added to the bank on exit.
        counts = self.bank.data
        acct = self.acct
        lat = acct.lat
        base_cpi = lat.base_cpi
        ierat_lat = lat.ierat_miss
        derat_lat = lat.derat_miss
        tlb_lat = lat.tlb_miss
        derat_redisp = lat.derat_redispatch
        covered_lat = lat.covered_prefetch
        alloc_lat = lat.stream_alloc
        store_miss_lat = lat.store_miss
        stcx_lat = lat.stcx_fail
        sync_lat = lat.sync
        sync_srq_lat = lat.sync_srq_cycles
        br_lat = lat.branch_mispredict
        ta_lat = lat.target_mispredict
        flush_w = lat.flush_width
        l2_redisp = lat.l2_miss_redispatch

        cycles = acct.cycles
        completed = acct.completed
        extra = acct._extra_dispatch
        srq = acct._sync_srq_cycles
        n_blocks = n_ld = n_st = 0

        # --- memory-system structures -------------------------------
        memory = self.memory
        l1i = memory.l1i
        l1i_sets = l1i.sets
        l1i_nsets = l1i.n_sets
        l1i_assoc = l1i.associativity
        l1i_lru = l1i.lru
        l1d = memory.l1d
        l1d_sets = l1d.sets
        l1d_nsets = l1d.n_sets
        l1d_assoc = l1d.associativity
        l1d_lru = l1d.lru
        iline_bytes = memory.machine.l1i.line_bytes
        dline = memory.machine.l1d.line_bytes
        # StreamPrefetcher.on_miss is inlined: the same dict
        # operations in the same order, on the prefetcher's own dicts.
        prefetcher = memory.prefetcher
        streams = prefetcher._streams
        runs = prefetcher._runs
        runs_pop = runs.pop
        alloc_after = prefetcher.config.allocate_after
        n_streams = prefetcher.config.n_streams
        runs_cap = prefetcher._runs_capacity
        alloc_l2 = prefetcher.alloc_outcome.l2_prefetches
        gather = memory._store_gather
        gather_last = -1
        # Beyond-L1 source classification draws from the memory
        # system's own backing RNG stream, not the instruction stream.
        brnd = memory.rng.random
        l1i_h = l1i_m = l1d_h = 0
        ld_miss = st_miss = covered = 0

        # --- object-centric attribution (repro.obs.objprof) ---------
        # Charges data-side miss events to allocation-site extents.
        # Pure side counters: no RNG draws, no float accumulation, so
        # a profiled run stays bit-identical to an unprofiled one.
        prof = _objprof._ACTIVE
        prof_charge = prof.charge if prof is not None else None
        P_LD_MISS = _objprof.SLOT_LD_MISS
        P_ST_MISS = _objprof.SLOT_ST_MISS
        P_DERAT = _objprof.SLOT_DERAT_MISS
        P_DTLB = _objprof.SLOT_DTLB_MISS
        P_COVERED = _objprof.SLOT_COVERED

        # --- translation structures (LRU ERATs: see _can_fuse) -----
        trans = self.translation
        derat = trans.derat.cache
        derat_sets = derat.sets
        derat_nsets = derat.n_sets
        derat_assoc = derat.associativity
        derat_granule = trans.derat.granule_bytes
        ierat = trans.ierat.cache
        ierat_sets = ierat.sets
        ierat_nsets = ierat.n_sets
        ierat_assoc = ierat.associativity
        ierat_granule = trans.ierat.granule_bytes
        tlb = trans.tlb
        tlb_access = tlb.cache.access
        derat_m = ierat_m = 0
        derat_last = ierat_last = -1
        tlb_dh = tlb_dm = tlb_ih = tlb_im = 0

        # --- code side ----------------------------------------------
        code_page, code_flag, icum, ients, in_m1 = self._inst_row
        dir_pred = self.branches.direction
        dir_table = dir_pred._table
        dir_entries = dir_pred.entries
        tgt_pred = self.branches.target
        tgt_table = tgt_pred._table
        tgt_entries = tgt_pred.entries
        active = self._active
        active_cum = self._active_cum
        acum_last = active_cum[-1]
        n_active_m1 = len(active) - 1
        unit = self._unit
        unit_base = unit.base
        unit_end = unit.end
        cond_sites = unit.cond_sites
        n_cond = len(cond_sites)
        cond_nb = n_cond.bit_length()
        ind_sites = unit.ind_sites
        pos = self._pos
        fetched = self._fetched_line

        # --- data side ----------------------------------------------
        load_rows = self._load_rows
        load_cum = self._load_cum
        load_total = load_cum[-1]
        n_load_m1 = len(load_rows) - 1
        store_rows = self._store_rows
        store_cum = self._store_cum
        store_total = store_cum[-1]
        n_store_m1 = len(store_rows) - 1
        granule_d = self._granule
        granule_get = granule_d.get
        seq_ptr_d = self._seq_ptr
        seq_get = seq_ptr_d.get
        dwell_p = self._dwell_p

        while cycles < cycle_limit:
            # ---- block length --------------------------------------
            if mean_extra > 0.0:
                # expovariate inlined (same floats: -log(1-u)/lambd).
                k = int(-log(1.0 - rnd()) / inv_mean_extra)
                k = 1 + (k if k < 64 else 64)
            else:
                k = 1

            # ---- instruction fetch: the I-lines the block spans ----
            end = pos + k * INSTR_BYTES
            line = pos // iline_bytes
            last_line = (end - 1) // iline_bytes
            if line == fetched:
                # Straight-line continuation: the first line was
                # fetched by the previous block.
                line += 1
            while line <= last_line:
                addr = line * iline_bytes
                # I-side translation: IERAT, then the unified TLB.  A
                # repeat of the last granule, or any MRU hit, changes
                # nothing; hits are lines fetched minus misses.
                g = addr // ierat_granule
                if g != ierat_last:
                    ierat_last = g
                    ways = ierat_sets[g % ierat_nsets]
                    if not ways or ways[-1] != g:
                        if g in ways:
                            ways.remove(g)
                            ways.append(g)
                        else:
                            ierat_m += 1
                            if len(ways) >= ierat_assoc:
                                del ways[0]
                            ways.append(g)
                            hit = tlb_access(addr // code_page * 2 + code_flag)
                            if hit:
                                tlb_ih += 1
                            else:
                                tlb_im += 1
                            cycles += ierat_lat
                            if not hit:
                                cycles += tlb_lat
                # L1I probe.
                ways = l1i_sets[line % l1i_nsets]
                if line in ways:
                    l1i_h += 1
                    if l1i_lru and ways[-1] != line:
                        ways.remove(line)
                        ways.append(line)
                else:
                    l1i_m += 1
                    slot, pen = ients[bisect(icum, brnd(), 0, in_m1)]
                    counts[slot] += 1
                    if len(ways) >= l1i_assoc:
                        del ways[0]
                    ways.append(line)
                    cycles += pen
                fetched = line
                line += 1
            pos = end

            # ---- completion at the stall-free rate -----------------
            completed += k
            cycles += k * base_cpi

            # ---- memory operations ---------------------------------
            n_mem, frac = mem_counts[k]
            if rnd() < frac:
                n_mem += 1
            while n_mem:
                n_mem -= 1
                if rnd() < load_fraction:
                    x = rnd() * load_total
                    row = load_rows[bisect(load_cum, x, 0, n_load_m1)]
                else:
                    x = rnd() * store_total
                    row = store_rows[bisect(store_cum, x, 0, n_store_m1)]
                (
                    is_load, seq_aff, span, step, name, base, rend, size, size_nb,
                    n_pages, pages_nb, page, page_flag, region, bcum, bents, bn_m1,
                ) = row

                # Address: scan, dwell, or fresh draw (in that order).
                # Scans advance a per-region sequential pointer (table
                # scans, copies, the allocation frontier) and feed the
                # stream prefetcher; non-scan accesses mostly dwell in
                # the region's current locality neighborhood.
                if rnd() < seq_aff:
                    ptr = seq_get(name)
                    # Scans run in chunks: a real scan is interrupted
                    # (next row batch, next object) every ~SCAN_CHUNK
                    # accesses and resumes elsewhere, so every burst
                    # pays its own stream allocation and leading
                    # misses.
                    if ptr is None or rnd() < inv_scan_chunk:
                        # randrange(n_pages) inlined (CPython's
                        # _randbelow_with_getrandbits, bit-identical).
                        r = getrandbits(pages_nb)
                        while r >= n_pages:
                            r = getrandbits(pages_nb)
                        ptr = base + r * page
                    addr = ptr
                    ptr += step
                    if ptr >= rend:
                        ptr = base
                    seq_ptr_d[name] = ptr
                else:
                    addr = None
                    if rnd() < dwell_p:
                        granule = granule_get(name)
                        if granule is not None:
                            n = rend - granule
                            if span < n:
                                n = span
                            nb = n.bit_length()
                            r = getrandbits(nb)
                            while r >= n:
                                r = getrandbits(nb)
                            addr = granule + r
                    if addr is None:
                        r = getrandbits(size_nb)
                        while r >= size:
                            r = getrandbits(size_nb)
                        addr = base + r
                        granule = (addr // span) * span
                        granule_d[name] = granule if granule > base else base

                # D-side translation: DERAT, then the unified TLB; a
                # repeat of the last granule, or any MRU hit, changes
                # nothing.
                g = addr // derat_granule
                if g != derat_last:
                    derat_last = g
                    ways = derat_sets[g % derat_nsets]
                    if not ways or ways[-1] != g:
                        if g in ways:
                            ways.remove(g)
                            ways.append(g)
                        else:
                            derat_m += 1
                            if len(ways) >= derat_assoc:
                                del ways[0]
                            ways.append(g)
                            if prof_charge is not None:
                                prof_charge(region, addr, P_DERAT)
                            hit = tlb_access(addr // page * 2 + page_flag)
                            if hit:
                                tlb_dh += 1
                            else:
                                tlb_dm += 1
                                if prof_charge is not None:
                                    prof_charge(region, addr, P_DTLB)
                            cycles += derat_lat
                            extra += derat_redisp
                            if not hit:
                                cycles += tlb_lat

                dblock = addr // dline
                if is_load:
                    n_ld += 1
                    if dblock in streams:
                        # Prefetch-covered: behaves like an L1 hit;
                        # the stream advances and stays most-recent.
                        del streams[dblock]
                        streams[dblock + 1] = None
                        ways = l1d_sets[dblock % l1d_nsets]
                        if dblock in ways:
                            if l1d_lru and ways[-1] != dblock:
                                ways.remove(dblock)
                                ways.append(dblock)
                        else:
                            if len(ways) >= l1d_assoc:
                                del ways[0]
                            ways.append(dblock)
                        covered += 1
                        if prof_charge is not None:
                            prof_charge(region, addr, P_COVERED)
                        cycles += covered_lat
                    else:
                        ways = l1d_sets[dblock % l1d_nsets]
                        if dblock in ways:
                            l1d_h += 1
                            if l1d_lru and ways[-1] != dblock:
                                ways.remove(dblock)
                                ways.append(dblock)
                        else:
                            ld_miss += 1
                            # The stream detector (on_miss): extend the
                            # ascending run ending at the previous line,
                            # or allocate a stream once it is confirmed.
                            run = runs_pop(dblock - 1, 0) + 1
                            allocated = False
                            if run > alloc_after:
                                if dblock + 1 not in streams:
                                    while len(streams) >= n_streams:
                                        del streams[next(iter(streams))]
                                    streams[dblock + 1] = None
                                    allocated = True
                                    counts[_STREAM_ALLOC] += 1
                                    counts[_L2_PREF] += alloc_l2
                            else:
                                runs[dblock] = run
                                while len(runs) > runs_cap:
                                    del runs[next(iter(runs))]
                            slot, pen, is_l2, prof_slot = bents[
                                bisect(bcum, brnd(), 0, bn_m1)
                            ]
                            counts[slot] += 1
                            if prof_charge is not None:
                                prof_charge(region, addr, P_LD_MISS)
                                prof_charge(region, addr, prof_slot)
                            if len(ways) >= l1d_assoc:
                                del ways[0]
                            ways.append(dblock)
                            cycles += pen
                            if is_l2:
                                extra += l2_redisp
                            if allocated:
                                cycles += alloc_lat
                else:
                    # Write-through, non-allocating store path with
                    # an 8-entry store-gather (SRQ merge) buffer; a
                    # store to its newest line leaves its order as is.
                    n_st += 1
                    if dblock != gather_last:
                        gather_last = dblock
                        if dblock in gather:
                            del gather[dblock]
                            gather[dblock] = None
                        else:
                            gather[dblock] = None
                            if len(gather) > 8:
                                del gather[next(iter(gather))]
                            ways = l1d_sets[dblock % l1d_nsets]
                            if dblock in ways:
                                l1d_h += 1
                                if l1d_lru and ways[-1] != dblock:
                                    ways.remove(dblock)
                                    ways.append(dblock)
                            else:
                                st_miss += 1
                                if prof_charge is not None:
                                    prof_charge(region, addr, P_ST_MISS)
                                cycles += store_miss_lat

            # ---- LARX/STCX pairs -----------------------------------
            n, frac = larx_counts[k]
            if rnd() < frac:
                n += 1
            if n:
                counts[_LARX] += n
                counts[_STCX] += n
                for _ in range(n):
                    if rnd() < STCX_FAIL_P:
                        counts[_STCX_FAIL] += 1
                        cycles += stcx_lat

            # ---- SYNCs ---------------------------------------------
            n, frac = sync_counts[k]
            if rnd() < frac:
                n += 1
            if n:
                counts[_SYNC_CNT] += n
                for _ in range(n):
                    cycles += sync_lat
                    srq += sync_srq_lat

            # ---- end-of-block branch -------------------------------
            n_blocks += 1
            switch = False
            if hard_frac and rnd() < hard_frac:
                # A data-dependent branch: effectively unpredictable.
                sid = cond_sites[0][0] ^ 0x5A5A5A5A
                taken = rnd() < 0.5
                idx = sid % dir_entries
                state = dir_table[idx]
                if taken:
                    dir_table[idx] = state + 1 if state < 3 else 3
                else:
                    dir_table[idx] = state - 1 if state > 0 else 0
                if (state >= 2) != taken:
                    counts[_BR_MPRED_CR] += 1
                    cycles += br_lat
                    extra += flush_w
                if taken:
                    # randint(2, 20) inlined: 2 + _randbelow(19).
                    r = getrandbits(5)
                    while r >= 19:
                        r = getrandbits(5)
                    pos += INSTR_BYTES * (2 + r)
                    fetched = -1
                # Common control-transfer tail so that hard-branch
                # density does not perturb code-footprint churn.
                switch = rnd() < call_frac or pos >= unit_end
            elif ind_sites and rnd() < ind_frac:
                n = len(ind_sites)
                nb = n.bit_length()
                r = getrandbits(nb)
                while r >= n:
                    r = getrandbits(nb)
                site = ind_sites[r]
                target = site.pick_target(rng)
                counts[_BR_INDIRECT] += 1
                idx = site.sid % tgt_entries
                if tgt_table[idx] != target:
                    counts[_BR_MPRED_TA] += 1
                    cycles += ta_lat
                    extra += flush_w
                tgt_table[idx] = target
                # Virtual dispatch usually transfers to another method.
                switch = rnd() < 0.6
            else:
                r = getrandbits(cond_nb)
                while r >= n_cond:
                    r = getrandbits(cond_nb)
                sid, bias = cond_sites[r]
                taken = rnd() < bias
                idx = sid % dir_entries
                state = dir_table[idx]
                if taken:
                    dir_table[idx] = state + 1 if state < 3 else 3
                else:
                    dir_table[idx] = state - 1 if state > 0 else 0
                if (state >= 2) != taken:
                    counts[_BR_MPRED_CR] += 1
                    cycles += br_lat
                    extra += flush_w
                if taken:
                    if rnd() < 0.85:
                        # Loop back a few block lengths
                        # (randint(1, 3) inlined: 1 + _randbelow(3)).
                        r = getrandbits(2)
                        while r >= 3:
                            r = getrandbits(2)
                        npos = pos - k * INSTR_BYTES * (1 + r)
                        pos = unit_base if npos < unit_base else npos
                    else:
                        # randint(4, 40) inlined: 4 + _randbelow(37).
                        r = getrandbits(6)
                        while r >= 37:
                            r = getrandbits(6)
                        pos += INSTR_BYTES * (4 + r)
                    fetched = -1
                switch = rnd() < call_frac or pos >= unit_end
            if switch:
                # Weighted draw of the next active unit.
                unit = active[bisect(active_cum, rnd() * acum_last, 0, n_active_m1)]
                unit_base = unit.base
                unit_end = unit.end
                cond_sites = unit.cond_sites
                n_cond = len(cond_sites)
                cond_nb = n_cond.bit_length()
                ind_sites = unit.ind_sites
                pos = unit_base
                fetched = -1

        # ---- flush locals back to the shared structures ------------
        acct.cycles = cycles
        acct.completed = completed
        acct._extra_dispatch = extra
        acct._sync_srq_cycles = srq
        counts[_BR_CMPL] += n_blocks
        counts[_INST_FROM_L1] += l1i_h
        counts[_IERAT_MISS] += ierat_m
        counts[_ITLB_MISS] += tlb_im
        counts[_LD_REF] += n_ld
        counts[_ST_REF] += n_st
        counts[_LD_MISS] += ld_miss
        counts[_ST_MISS] += st_miss
        counts[_L1_PREF] += covered
        counts[_L2_PREF] += covered
        counts[_DERAT_MISS] += derat_m
        counts[_DTLB_MISS] += tlb_dm
        l1i.hits += l1i_h
        l1i.misses += l1i_m
        l1d.hits += l1d_h
        l1d.misses += ld_miss + st_miss
        # Every data reference probes the DERAT once.
        derat.hits += n_ld + n_st - derat_m
        derat.misses += derat_m
        # ... and every I-line fetched probes the IERAT once.
        ierat.hits += l1i_h + l1i_m - ierat_m
        ierat.misses += ierat_m
        tlb.data_hits += tlb_dh
        tlb.data_misses += tlb_dm
        tlb.inst_hits += tlb_ih
        tlb.inst_misses += tlb_im
        self._unit = unit
        self._pos = pos
        self._fetched_line = fetched
