"""Object-centric profiling of the simulated Java heap.

The paper reports the heap's byte populations only in aggregate (live,
fresh garbage, dark matter); nothing says *which objects* the misses
belong to.  DJXPerf (arxiv 2104.03388) and JXPerf (arxiv 1906.12066)
show that the actionable form of a memory profile is object-centric:
misses and footprint ranked per allocation site, with lifetimes.  This
module is that layer for the simulation:

* a catalog of paper-plausible **allocation-site classes** (session
  state, request buffers, JDBC result rows, char[]/String churn,
  short-lived collections, in-memory cache entries) with per-site
  allocation shares, live-set shares, dark-matter propensities and
  lifetime classes;
* **address→site attribution**: every heap data region is partitioned
  into contiguous per-site extents (largest-remainder byte split, so
  extent sizes sum exactly to the region size), and the instruction
  stream kernels charge each L1D/ERAT/TLB miss event to the owning
  site by a bisect over the extent boundaries;
* **byte accounting**: a :class:`SiteLedger` attached to each
  :class:`~repro.jvm.heap.FlatHeap` splits every allocation, sweep and
  compaction across sites with the same largest-remainder rule, so the
  per-site live / fresh / dark-matter bytes sum *exactly* to the
  heap's aggregate counters;
* a :class:`SiteProfile` report with a DJXPerf-style "top inefficient
  objects" ranking (miss events weighted by their exposed pipeline
  penalties), per-site lifetime histograms and dark-matter shares.

Discipline (identical to :mod:`repro.obs.runtime`): at most one
profiler is active per process; instrumented call sites guard on the
module-level ``_ACTIVE`` and do nothing when it is None, and the
instrumentation **never draws randomness** and never perturbs float
accumulation — a profiled run's simulated hardware and GC counters are
bit-identical to an unprofiled run (asserted by
``tests/obs/test_determinism.py``).  One consequence worth knowing:
the run cache is bypassed while a profiler is active
(:meth:`repro.runcache.RunCache.get_or_run`) so the SUT genuinely
executes and the heap ledger fills — a cache replay would return the
stored result without ever constructing a heap.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import PipelineLatencies
from repro.cpu import regions as R
from repro.cpu.regions import Region
from repro.cpu.sources import DataSource

# ---------------------------------------------------------------------------
# Event slots
# ---------------------------------------------------------------------------

#: Per-site event-count slots.  The first five mirror the miss events
#: the kernels charge; data sources follow in ``DataSource`` order.
SLOT_LD_MISS = 0
SLOT_ST_MISS = 1
SLOT_DERAT_MISS = 2
SLOT_DTLB_MISS = 3
SLOT_COVERED = 4
_SOURCE_BASE = 5
SLOT_OF_SOURCE: Dict[DataSource, int] = {
    src: _SOURCE_BASE + i for i, src in enumerate(DataSource)
}
N_SLOTS = _SOURCE_BASE + len(DataSource)

_SLOT_NAMES = ["ld_miss", "st_miss", "derat_miss", "dtlb_miss", "covered"] + [
    f"from_{src.name.lower()}" for src in DataSource
]

#: Lifetime histogram bucket upper bounds, in virtual seconds.
LIFETIME_BOUNDS: Tuple[float, ...] = (
    0.05, 0.2, 1.0, 5.0, 30.0, 120.0, 600.0, 3600.0
)

#: Dying bytes are spread deterministically across these fractions of
#: the GC interval (objects die throughout the interval, not at its
#: end; five fixed points keep the spread RNG-free).
_LIFETIME_SPREAD: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)

#: Lifetime-class multipliers on the GC interval: transaction-scoped
#: objects die well inside one interval, session state survives many.
_LIFETIME_SCALE = {
    "transaction": 0.25,
    "request": 0.6,
    "session": 8.0,
    "resident": 40.0,
}


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder (Hamilton) apportionment: parts sum *exactly* to
    ``total``, ties broken by index — fully deterministic, no floats
    escape.  All-zero weights split everything into the first part.
    """
    if total < 0:
        raise ValueError("cannot apportion a negative total")
    n = len(weights)
    if n == 0:
        raise ValueError("need at least one weight")
    wsum = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("weights must be non-negative")
        wsum += w
    if wsum <= 0.0:
        parts = [0] * n
        parts[0] = total
        return parts
    parts = []
    remainders = []
    assigned = 0
    for i, w in enumerate(weights):
        share = total * w / wsum
        p = int(share)
        parts.append(p)
        remainders.append((-(share - p), i))
        assigned += p
    remainders.sort()
    for k in range(total - assigned):
        parts[remainders[k][1]] += 1
    return parts


# ---------------------------------------------------------------------------
# The site catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteClass:
    """One allocation-site class (or infrastructure pseudo-site).

    ``kind`` is ``"heap"`` for Java-object sites that partition the
    heap data regions and receive byte accounting, or ``"infra"`` for
    pseudo-sites that own a non-heap data region outright (stack
    frames, the DB2 buffer pool, ...) so that *every* data-side miss
    is charged somewhere and per-site sums reconcile exactly with the
    aggregate counters.
    """

    name: str
    kind: str
    lifetime_class: str
    description: str
    #: Share of fresh allocation bytes this site produces.
    alloc_share: float = 0.0
    #: Share of the steady live set this site retains.
    live_share: float = 0.0
    #: Relative propensity of this site's garbage to strand dark
    #: matter (small, interleaved objects fragment; big buffers don't).
    dark_weight: float = 0.0
    mean_object_bytes: int = 64
    #: Region name -> weight of this site's extent inside that region.
    region_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("heap", "infra"):
            raise ValueError(f"unknown site kind {self.kind!r}")
        if self.lifetime_class not in _LIFETIME_SCALE:
            raise ValueError(f"unknown lifetime class {self.lifetime_class!r}")


#: Name of the catch-all site for data regions no site claims.
OTHER_SITE = "other"


def default_catalog() -> List[SiteClass]:
    """The paper-plausible site classes of a jas2004-like workload.

    Heap sites' ``region_weights`` columns sum to 1.0 for every heap
    data stratum, so the extent split covers each region exactly.
    Shares are modeling choices (the paper does not report per-site
    data); what matters downstream is that they are *fixed*, sum to
    one, and produce the qualitative structure DJXPerf finds in Java
    server workloads: allocation dominated by short-lived churn,
    footprint dominated by session/cache state.
    """
    return [
        SiteClass(
            name="string_churn",
            kind="heap",
            lifetime_class="transaction",
            description="char[]/String temporaries (request parsing, SQL text)",
            alloc_share=0.34,
            live_share=0.08,
            dark_weight=1.6,
            mean_object_bytes=48,
            region_weights={
                R.HEAP_HOT: 0.10,
                R.HEAP_MEDIUM: 0.10,
                R.HEAP_COLD: 0.04,
                R.HEAP_ALLOC: 0.40,
                R.HEAP_SHARED: 0.05,
            },
        ),
        SiteClass(
            name="request_buffers",
            kind="heap",
            lifetime_class="request",
            description="per-request byte buffers and serialization scratch",
            alloc_share=0.22,
            live_share=0.06,
            dark_weight=1.1,
            mean_object_bytes=2048,
            region_weights={
                R.HEAP_HOT: 0.15,
                R.HEAP_MEDIUM: 0.25,
                R.HEAP_COLD: 0.06,
                R.HEAP_ALLOC: 0.25,
                R.HEAP_SHARED: 0.10,
            },
        ),
        SiteClass(
            name="jdbc_rows",
            kind="heap",
            lifetime_class="request",
            description="JDBC result-set rows and column wrappers",
            alloc_share=0.18,
            live_share=0.08,
            dark_weight=1.3,
            mean_object_bytes=320,
            region_weights={
                R.HEAP_HOT: 0.10,
                R.HEAP_MEDIUM: 0.20,
                R.HEAP_COLD: 0.10,
                R.HEAP_ALLOC: 0.20,
                R.HEAP_SHARED: 0.05,
            },
        ),
        SiteClass(
            name="collection_temp",
            kind="heap",
            lifetime_class="transaction",
            description="short-lived collections, iterators and boxing",
            alloc_share=0.16,
            live_share=0.06,
            dark_weight=1.5,
            mean_object_bytes=96,
            region_weights={
                R.HEAP_HOT: 0.25,
                R.HEAP_MEDIUM: 0.15,
                R.HEAP_COLD: 0.05,
                R.HEAP_ALLOC: 0.15,
                R.HEAP_SHARED: 0.10,
            },
        ),
        SiteClass(
            name="session_state",
            kind="heap",
            lifetime_class="session",
            description="HTTP session state and stateful EJB fields",
            alloc_share=0.07,
            live_share=0.42,
            dark_weight=0.4,
            mean_object_bytes=512,
            region_weights={
                R.HEAP_HOT: 0.20,
                R.HEAP_MEDIUM: 0.15,
                R.HEAP_COLD: 0.45,
                R.HEAP_SHARED: 0.40,
            },
        ),
        SiteClass(
            name="cache_entries",
            kind="heap",
            lifetime_class="resident",
            description="entity/prepared-statement cache entries",
            alloc_share=0.03,
            live_share=0.30,
            dark_weight=0.2,
            mean_object_bytes=1024,
            region_weights={
                R.HEAP_HOT: 0.20,
                R.HEAP_MEDIUM: 0.15,
                R.HEAP_COLD: 0.30,
                R.HEAP_SHARED: 0.30,
            },
        ),
        # --- infrastructure pseudo-sites (whole-region owners) --------
        SiteClass(
            name="stack_frames",
            kind="infra",
            lifetime_class="transaction",
            description="thread stacks (not heap objects)",
            region_weights={R.STACK: 1.0},
        ),
        SiteClass(
            name="db_buffer_pool",
            kind="infra",
            lifetime_class="resident",
            description="DB2 buffer pool pages",
            region_weights={R.DB_BUFFER: 1.0},
        ),
        SiteClass(
            name="native_data",
            kind="infra",
            lifetime_class="resident",
            description="native library data segments",
            region_weights={R.NATIVE_DATA: 1.0},
        ),
        SiteClass(
            name="gc_metadata",
            kind="infra",
            lifetime_class="resident",
            description="mark/sweep bitmap and GC structures",
            region_weights={R.GC_BITMAP: 1.0},
        ),
        SiteClass(
            name=OTHER_SITE,
            kind="infra",
            lifetime_class="resident",
            description="any data region no site claims",
        ),
    ]


# ---------------------------------------------------------------------------
# Heap byte ledger
# ---------------------------------------------------------------------------


class SiteLedger:
    """Per-heap site-level byte accounting, reconciling exactly.

    One ledger per :class:`~repro.jvm.heap.FlatHeap` built while a
    profiler is active.  Invariants (asserted by :meth:`reconcile` and
    the determinism tests):

    * ``sum(fresh) == heap.allocated_since_gc``
    * ``sum(dark) == heap.dark_matter_bytes``
    * ``sum(live_split()) == heap.live_bytes``

    The ledger *observes* the heap; it never feeds anything back, so
    heap arithmetic is untouched by its presence.
    """

    def __init__(self, heap, sites: Sequence[SiteClass]):
        self.heap = heap
        self.sites = list(sites)
        n = len(self.sites)
        self._alloc_weights = [s.alloc_share for s in self.sites]
        self._live_weights = [s.live_share for s in self.sites]
        self._dark_propensity = [s.dark_weight for s in self.sites]
        self._lifetime_scale = [
            _LIFETIME_SCALE[s.lifetime_class] for s in self.sites
        ]
        self.fresh = [0] * n
        self.dark = [0] * n
        self.allocated_total = [0] * n
        #: Per site: bucket byte counts over LIFETIME_BOUNDS + overflow.
        self.lifetime_buckets = [
            [0] * (len(LIFETIME_BOUNDS) + 1) for _ in range(n)
        ]
        self.lifetime_bytes = [0] * n
        self.lifetime_weighted_s = [0.0] * n
        self._last_gc_s: Optional[float] = None
        self._pending_gc_s: Optional[float] = None

    # -- hooks driven by FlatHeap / the collector ----------------------
    def on_allocate(self, n_bytes: int) -> None:
        parts = apportion(n_bytes, self._alloc_weights)
        fresh = self.fresh
        total = self.allocated_total
        for i, p in enumerate(parts):
            if p:
                fresh[i] += p
                total[i] += p

    def note_gc(self, now_s: float) -> None:
        """The collector announces the virtual time of the collection
        it is about to apply (lifetimes need the GC interval)."""
        self._pending_gc_s = now_s

    def on_reclaim(self, surviving_fraction: float, dark_added: int) -> None:
        """Mirror :meth:`FlatHeap.reclaim` at site granularity."""
        fresh = self.fresh
        total_fresh = sum(fresh)
        survivors = int(total_fresh * surviving_fraction)
        survivor_parts = apportion(survivors, [float(f) for f in fresh])
        dying = [f - s for f, s in zip(fresh, survivor_parts)]
        dark_parts = apportion(
            dark_added,
            [f * w for f, w in zip(fresh, self._dark_propensity)],
        )
        self._record_lifetimes(dying)
        for i in range(len(fresh)):
            fresh[i] = 0
            self.dark[i] += dark_parts[i]
        if self._pending_gc_s is not None:
            self._last_gc_s = self._pending_gc_s
            self._pending_gc_s = None

    def on_compact(self) -> None:
        for i in range(len(self.dark)):
            self.dark[i] = 0

    # -- lifetime recording --------------------------------------------
    def _record_lifetimes(self, dying: Sequence[int]) -> None:
        if self._pending_gc_s is None:
            return
        last = self._last_gc_s if self._last_gc_s is not None else 0.0
        interval = max(0.0, self._pending_gc_s - last)
        if interval <= 0.0:
            return
        ones = [1.0] * len(_LIFETIME_SPREAD)
        for i, dead in enumerate(dying):
            if not dead:
                continue
            scale = self._lifetime_scale[i] * interval
            buckets = self.lifetime_buckets[i]
            for frac, part in zip(_LIFETIME_SPREAD, apportion(dead, ones)):
                if not part:
                    continue
                lifetime_s = scale * frac
                buckets[_lifetime_bucket(lifetime_s)] += part
                self.lifetime_bytes[i] += part
                self.lifetime_weighted_s[i] += lifetime_s * part

    # -- reading back --------------------------------------------------
    def live_split(self) -> List[int]:
        """The heap's current live bytes apportioned by live share."""
        return apportion(self.heap.live_bytes, self._live_weights)

    def reconcile(self) -> Dict[str, bool]:
        """Exactness checks against the heap's aggregate counters."""
        return {
            "fresh": sum(self.fresh) == self.heap.allocated_since_gc,
            "dark": sum(self.dark) == self.heap.dark_matter_bytes,
            "live": sum(self.live_split()) == self.heap.live_bytes,
        }


def _lifetime_bucket(lifetime_s: float) -> int:
    for i, bound in enumerate(LIFETIME_BOUNDS):
        if lifetime_s <= bound:
            return i
    return len(LIFETIME_BOUNDS)


# ---------------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------------


class ObjProfiler:
    """One object-centric profiling session.

    Hot-path contract: :meth:`charge` is called from the stream
    kernels at miss events only, does two dict lookups, one bisect and
    one integer increment, and **never** touches an RNG.
    """

    def __init__(self, catalog: Optional[Sequence[SiteClass]] = None):
        self.catalog = list(catalog) if catalog is not None else default_catalog()
        names = [s.name for s in self.catalog]
        if len(set(names)) != len(names):
            raise ValueError("duplicate site names in catalog")
        self.sites_by_name = {s.name: s for s in self.catalog}
        if OTHER_SITE not in self.sites_by_name:
            other = SiteClass(
                name=OTHER_SITE,
                kind="infra",
                lifetime_class="resident",
                description="any data region no site claims",
            )
            self.catalog.append(other)
            self.sites_by_name[OTHER_SITE] = other
        self.heap_sites = [s for s in self.catalog if s.kind == "heap"]
        #: site name -> mutable event-count row (length N_SLOTS).
        self.counts: Dict[str, List[int]] = {
            s.name: [0] * N_SLOTS for s in self.catalog
        }
        #: region owners: region name -> infra site (whole region).
        self._infra_owner: Dict[str, SiteClass] = {}
        for site in self.catalog:
            if site.kind == "infra":
                for region_name in site.region_weights:
                    self._infra_owner[region_name] = site
        #: (name) -> (region, boundary offsets, extent count rows).
        self._extents: Dict[
            str, Tuple[Region, List[int], List[List[int]]]
        ] = {}
        self.ledgers: List[SiteLedger] = []

    # -- address → site attribution ------------------------------------
    def _build_extents(
        self, region: Region
    ) -> Tuple[Region, List[int], List[List[int]]]:
        owner = self._infra_owner.get(region.name)
        if owner is not None:
            return (region, [], [self.counts[owner.name]])
        weights = [s.region_weights.get(region.name, 0.0) for s in self.heap_sites]
        if sum(weights) <= 0.0:
            return (region, [], [self.counts[OTHER_SITE]])
        parts = apportion(region.size_bytes, weights)
        bounds: List[int] = []
        rows: List[List[int]] = []
        offset = 0
        for site, size in zip(self.heap_sites, parts):
            if size == 0:
                continue
            rows.append(self.counts[site.name])
            offset += size
            bounds.append(offset)
        bounds.pop()  # last boundary == region size; bisect covers it
        return (region, bounds, rows)

    def charge(self, region: Region, addr: int, slot: int) -> None:
        """Charge one miss event at ``addr`` to the owning site."""
        ext = self._extents.get(region.name)
        if ext is None or ext[0] is not region:
            ext = self._build_extents(region)
            self._extents[region.name] = ext
        _, bounds, rows = ext
        rows[bisect_right(bounds, addr - region.base)][slot] += 1

    def site_of(self, region: Region, addr: int) -> SiteClass:
        """The site an address belongs to (report/debug path)."""
        ext = self._extents.get(region.name)
        if ext is None or ext[0] is not region:
            ext = self._build_extents(region)
            self._extents[region.name] = ext
        _, bounds, rows = ext
        row = rows[bisect_right(bounds, addr - region.base)]
        for name, counts in self.counts.items():
            if counts is row:
                return self.sites_by_name[name]
        raise KeyError("unreachable: extent row without a site")

    # -- heap registration ---------------------------------------------
    def register_heap(self, heap) -> SiteLedger:
        ledger = SiteLedger(heap, self.heap_sites)
        self.ledgers.append(ledger)
        return ledger

    # -- reporting ------------------------------------------------------
    def build_profile(
        self,
        latencies: Optional[PipelineLatencies] = None,
        instructions: int = 0,
    ) -> "SiteProfile":
        lat = latencies if latencies is not None else PipelineLatencies()
        penalty = _slot_penalties(lat)
        reports: List[SiteReport] = []
        n_heap = len(self.heap_sites)
        live = [0] * n_heap
        fresh = [0] * n_heap
        dark = [0] * n_heap
        allocated = [0] * n_heap
        lt_bytes = [0] * n_heap
        lt_weighted = [0.0] * n_heap
        lt_buckets = [[0] * (len(LIFETIME_BOUNDS) + 1) for _ in range(n_heap)]
        for ledger in self.ledgers:
            split = ledger.live_split()
            for i in range(n_heap):
                live[i] += split[i]
                fresh[i] += ledger.fresh[i]
                dark[i] += ledger.dark[i]
                allocated[i] += ledger.allocated_total[i]
                lt_bytes[i] += ledger.lifetime_bytes[i]
                lt_weighted[i] += ledger.lifetime_weighted_s[i]
                for b, count in enumerate(ledger.lifetime_buckets[i]):
                    lt_buckets[i][b] += count
        heap_index = {s.name: i for i, s in enumerate(self.heap_sites)}
        total_dark = sum(dark)
        for site in self.catalog:
            row = self.counts[site.name]
            miss_cycles = 0.0
            for slot, pen in enumerate(penalty):
                if row[slot]:
                    miss_cycles += row[slot] * pen
            i = heap_index.get(site.name)
            reports.append(
                SiteReport(
                    site=site,
                    counts=tuple(row),
                    live_bytes=live[i] if i is not None else 0,
                    fresh_bytes=fresh[i] if i is not None else 0,
                    dark_bytes=dark[i] if i is not None else 0,
                    allocated_bytes=allocated[i] if i is not None else 0,
                    dark_share=(
                        dark[i] / total_dark
                        if i is not None and total_dark
                        else 0.0
                    ),
                    lifetime_mean_s=(
                        lt_weighted[i] / lt_bytes[i]
                        if i is not None and lt_bytes[i]
                        else 0.0
                    ),
                    lifetime_buckets=(
                        tuple(lt_buckets[i]) if i is not None else ()
                    ),
                    miss_cycles=miss_cycles,
                )
            )
        return SiteProfile(
            reports=reports,
            instructions=instructions,
            n_heaps=len(self.ledgers),
        )

    def export_metrics(self, registry) -> None:
        """Write the current per-site totals into a metrics registry.

        Counters carry event counts, gauges carry byte populations —
        exporting into a *fresh* registry at two points and diffing
        with :func:`repro.obs.metrics.snapshot_delta` yields a
        windowed report.
        """
        profile = self.build_profile()
        for report in profile.reports:
            labels = {"site": report.site.name}
            for slot, name in enumerate(_SLOT_NAMES):
                if report.counts[slot]:
                    registry.counter(f"objprof.site.{name}", labels).inc(
                        report.counts[slot]
                    )
            if report.site.kind == "heap":
                registry.gauge("objprof.site.live_bytes", labels).set(
                    report.live_bytes
                )
                registry.gauge("objprof.site.dark_bytes", labels).set(
                    report.dark_bytes
                )
                registry.counter(
                    "objprof.site.allocated_bytes", labels
                ).inc(report.allocated_bytes)


def _slot_penalties(lat: PipelineLatencies) -> List[float]:
    """Exposed cycle penalty per event slot (the accountant's rates)."""
    pen = [0.0] * N_SLOTS
    pen[SLOT_ST_MISS] = lat.store_miss
    pen[SLOT_DERAT_MISS] = lat.derat_miss
    pen[SLOT_DTLB_MISS] = lat.tlb_miss
    pen[SLOT_COVERED] = lat.covered_prefetch
    source_pen = {
        DataSource.L2: lat.data_from_l2,
        DataSource.L25_SHR: lat.data_from_l25,
        DataSource.L25_MOD: lat.data_from_l25,
        DataSource.L275_SHR: lat.data_from_l275,
        DataSource.L275_MOD: lat.data_from_l275,
        DataSource.L3: lat.data_from_l3,
        DataSource.L35: lat.data_from_l35,
        DataSource.MEM: lat.data_from_mem,
    }
    for src, slot in SLOT_OF_SOURCE.items():
        pen[slot] = source_pen.get(src, lat.data_from_mem)
    return pen


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteReport:
    """One site's totals for the profiling session."""

    site: SiteClass
    counts: Tuple[int, ...]
    live_bytes: int
    fresh_bytes: int
    dark_bytes: int
    allocated_bytes: int
    dark_share: float
    lifetime_mean_s: float
    lifetime_buckets: Tuple[int, ...]
    #: Miss events weighted by their exposed pipeline penalties — the
    #: DJXPerf-style inefficiency score the ranking sorts by.
    miss_cycles: float

    @property
    def ld_misses(self) -> int:
        return self.counts[SLOT_LD_MISS]

    @property
    def st_misses(self) -> int:
        return self.counts[SLOT_ST_MISS]

    @property
    def derat_misses(self) -> int:
        return self.counts[SLOT_DERAT_MISS]

    @property
    def mem_sourced(self) -> int:
        return self.counts[SLOT_OF_SOURCE[DataSource.MEM]]

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site.name,
            "kind": self.site.kind,
            "lifetime_class": self.site.lifetime_class,
            "counts": {
                name: self.counts[slot]
                for slot, name in enumerate(_SLOT_NAMES)
            },
            "live_bytes": self.live_bytes,
            "fresh_bytes": self.fresh_bytes,
            "dark_bytes": self.dark_bytes,
            "allocated_bytes": self.allocated_bytes,
            "dark_share": self.dark_share,
            "lifetime_mean_s": self.lifetime_mean_s,
            "lifetime_bounds_s": list(LIFETIME_BOUNDS),
            "lifetime_buckets": list(self.lifetime_buckets),
            "miss_cycles": self.miss_cycles,
        }


@dataclass
class SiteProfile:
    """The full object-centric profile of one session."""

    reports: List[SiteReport]
    instructions: int = 0
    n_heaps: int = 0

    @property
    def heap_reports(self) -> List[SiteReport]:
        return [r for r in self.reports if r.site.kind == "heap"]

    def top_inefficient(self, n: int = 5) -> List[SiteReport]:
        """DJXPerf-style ranking: heap sites by penalty-weighted
        misses, deterministic (ties break by name)."""
        ranked = sorted(
            self.heap_reports, key=lambda r: (-r.miss_cycles, r.site.name)
        )
        return ranked[:n]

    def total(self, slot: int) -> int:
        return sum(r.counts[slot] for r in self.reports)

    def to_dict(self, top_n: int = 5) -> Dict[str, object]:
        return {
            "instructions": self.instructions,
            "n_heaps": self.n_heaps,
            "ranking": [r.site.name for r in self.top_inefficient(top_n)],
            "sites": [r.to_dict() for r in self.reports],
            "totals": {
                name: self.total(slot)
                for slot, name in enumerate(_SLOT_NAMES)
            },
        }

    def render_lines(self, top_n: int = 5) -> List[str]:
        lines = ["object-centric site profile (top inefficient objects):"]
        lines.append(
            f"  {'site':16s} {'class':11s} {'miss-cyc':>10s} {'ld-miss':>9s} "
            f"{'mem':>7s} {'derat':>7s} {'live MB':>8s} {'dark%':>6s} "
            f"{'life s':>7s}"
        )
        for report in self.top_inefficient(top_n):
            lines.append(
                f"  {report.site.name:16s} {report.site.lifetime_class:11s} "
                f"{report.miss_cycles:>10.0f} {report.ld_misses:>9d} "
                f"{report.mem_sourced:>7d} {report.derat_misses:>7d} "
                f"{report.live_bytes / 1048576:>8.1f} "
                f"{report.dark_share * 100:>5.1f}% "
                f"{report.lifetime_mean_s:>7.2f}"
            )
        return lines


# ---------------------------------------------------------------------------
# The process-wide session (the `_ACTIVE is not None` discipline)
# ---------------------------------------------------------------------------

#: The active profiler, or None.  Hot paths read this directly; all
#: writes go through :func:`profile_objects` / :func:`install`.
_ACTIVE: Optional[ObjProfiler] = None


def active() -> Optional[ObjProfiler]:
    """The active profiler (None when object profiling is disabled)."""
    return _ACTIVE


def install(prof: Optional[ObjProfiler]) -> Optional[ObjProfiler]:
    """Set the active profiler; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = prof
    return previous


@contextmanager
def profile_objects(
    catalog: Optional[Sequence[SiteClass]] = None,
) -> Iterator[ObjProfiler]:
    """Activate an object-centric profiling session for the body.

    Creates a fresh :class:`ObjProfiler` (with the default catalog
    unless one is passed).  Nesting restores the outer session.
    """
    prof = ObjProfiler(catalog)
    previous = install(prof)
    try:
        yield prof
    finally:
        install(previous)
