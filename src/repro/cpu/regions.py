"""The simulated address space: named regions with distinct behavior.

The workload's memory behavior is modeled as a set of *regions* — the
Java heap's hot/warm/cold strata, the allocation frontier, the DB2
buffer pool, the JIT code cache, native libraries, and so on.  Each
region carries:

* a base address and size (the working set the region exposes),
* its page size (the Java heap and selected GC structures sit in 16 MB
  large pages on the paper's system; everything else in 4 KB pages),
* a *backing distribution*: where an access that misses the L1 is
  satisfied from.  Structures above the L1 working-set scale are not
  simulated capacity-accurately at our scaled instruction counts (see
  DESIGN.md §5), so the steady-state sourcing mix of each region is
  encoded directly and Figure 9 emerges from the miss-weighted mixture
  over regions.

Bases are aligned to the large-page size so page-number arithmetic is
exact for either page size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import JvmConfig, MachineConfig, SharingProfile, TopologyConfig
from repro.cpu.sources import DataSource, InstSource
from repro.util.units import KB, MB

# Canonical region names.  Keeping them as module constants (rather
# than scattered string literals) lets the stream generator and the
# presets refer to regions without typos.
CODE_JIT = "code_jit"
CODE_NATIVE = "code_native"
CODE_KERNEL = "code_kernel"
CODE_GC = "code_gc"
CODE_IDLE = "code_idle"
STACK = "stack"
HEAP_HOT = "heap_hot"
HEAP_MEDIUM = "heap_medium"
HEAP_COLD = "heap_cold"
HEAP_ALLOC = "heap_alloc"
HEAP_SHARED = "heap_shared"
GC_BITMAP = "gc_bitmap"
DB_BUFFER = "db_buffer"
NATIVE_DATA = "native_data"

#: Measured system's memory-backed share of the cold heap stratum (the
#: rest hits L3).  ``JvmConfig.cold_mem_fraction`` overrides it for the
#: objprof footprint what-if.
HEAP_COLD_MEM_FRACTION = 0.30


def _normalized(dist: Iterable[Tuple[object, float]]) -> Tuple[Tuple[object, float], ...]:
    items = tuple(dist)
    total = sum(p for _, p in items)
    if total <= 0:
        raise ValueError("backing distribution must have positive mass")
    for _, p in items:
        if p < 0:
            raise ValueError("backing probabilities must be non-negative")
    return tuple((s, p / total) for s, p in items)


@dataclass(frozen=True)
class Region:
    """One named address-space region."""

    name: str
    base: int
    size_bytes: int
    page_bytes: int
    #: Sourcing distribution for data loads that miss the L1D.
    backing: Tuple[Tuple[DataSource, float], ...] = ()
    #: Sourcing distribution for instruction fetches that miss the L1I.
    inst_backing: Tuple[Tuple[InstSource, float], ...] = ()
    #: Spatial-locality neighborhood: successive dwell accesses land
    #: within this many bytes.  Small for stack-like data (a few hot
    #: cache lines), a full ERAT granule for bulk data.
    dwell_span: int = 4096
    #: How scan-prone the region is: multiplies the profile's scan
    #: fraction when an access lands here.  High for the allocation
    #: frontier and DB buffer (table scans), near zero for stack data.
    scan_affinity: float = 1.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"region {self.name!r} has non-positive size")
        if self.base % self.page_bytes != 0:
            raise ValueError(f"region {self.name!r} base not page-aligned")

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    @property
    def n_pages(self) -> int:
        return max(1, self.size_bytes // self.page_bytes)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def random_address(self, rng) -> int:
        """A uniformly random byte address inside the region."""
        return self.base + rng.randrange(self.size_bytes)

    def pick_source(self, rng) -> DataSource:
        """Draw a data source from the backing distribution."""
        x = rng.random()
        acc = 0.0
        for source, p in self.backing:
            acc += p
            if x < acc:
                return source
        return self.backing[-1][0]

    def pick_inst_source(self, rng) -> InstSource:
        """Draw an instruction source from the inst backing."""
        x = rng.random()
        acc = 0.0
        for source, p in self.inst_backing:
            acc += p
            if x < acc:
                return source
        return self.inst_backing[-1][0]


class AddressSpace:
    """The full region layout for one configuration."""

    def __init__(self, regions: List[Region]):
        self._regions: Dict[str, Region] = {}
        for region in regions:
            if region.name in self._regions:
                raise ValueError(f"duplicate region {region.name!r}")
            self._regions[region.name] = region

    def __getitem__(self, name: str) -> Region:
        return self._regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def names(self) -> List[str]:
        return sorted(self._regions)

    def region_of(self, addr: int) -> Optional[Region]:
        """The region containing ``addr`` (linear scan; debug use)."""
        for region in self._regions.values():
            if region.contains(addr):
                return region
        return None

    @classmethod
    def build(
        cls,
        machine: MachineConfig,
        jvm: JvmConfig,
        sharing: Optional[SharingProfile] = None,
        db_buffer_mb: int = 320,
    ) -> "AddressSpace":
        """Construct the standard layout for a machine + JVM config."""
        sharing = sharing if sharing is not None else SharingProfile()
        small = machine.translation.base_page_bytes
        large = machine.translation.large_page_bytes
        heap_page = large if jvm.heap_large_pages else small
        code_page = large if jvm.code_large_pages else small

        code_jit_bytes = max(large, jvm.n_jited_methods * jvm.mean_code_bytes)
        heap_cold_bytes = max(large, int(jvm.live_set_mb * MB))
        bitmap_bytes = max(64 * KB, (jvm.heap_mb * MB) // 256)

        regions: List[Region] = []
        cursor = large  # leave page zero unmapped

        def add(
            name: str,
            size: int,
            page: int,
            backing=None,
            inst_backing=None,
            dwell_span: int = 4096,
            scan_affinity: float = 1.0,
        ) -> None:
            nonlocal cursor
            # Regions may occupy part of a page (the heap strata all
            # share the heap's 16 MB pages); only bases are aligned.
            regions.append(
                Region(
                    name=name,
                    base=cursor,
                    size_bytes=size,
                    page_bytes=page,
                    backing=_normalized(backing) if backing else (),
                    inst_backing=_normalized(inst_backing) if inst_backing else (),
                    dwell_span=dwell_span,
                    scan_affinity=scan_affinity,
                )
            )
            cursor += ((size + large - 1) // large) * large

        d, i = DataSource, InstSource

        # --- Code ------------------------------------------------------
        add(
            CODE_JIT,
            code_jit_bytes,
            code_page,
            inst_backing=[(i.L2, 0.58), (i.L3, 0.36), (i.MEM, 0.06)],
        )
        add(
            CODE_NATIVE,
            24 * MB,
            small,
            inst_backing=[(i.L2, 0.62), (i.L3, 0.33), (i.MEM, 0.05)],
        )
        add(
            CODE_KERNEL,
            4 * MB,
            small,
            inst_backing=[(i.L2, 0.75), (i.L3, 0.23), (i.MEM, 0.02)],
        )
        add(CODE_GC, 64 * KB, small, inst_backing=[(i.L2, 1.0)])
        add(CODE_IDLE, 4 * KB, small, inst_backing=[(i.L2, 1.0)])

        # --- Hot data (together must fit the 32 KB L1D) ------------------
        # Tight dwell spans: stack frames and hot objects reuse a few
        # cache lines intensively, which is what lets them survive the
        # L1D's FIFO replacement under pollution from the bulk regions.
        add(
            STACK,
            16 * KB,
            small,
            backing=[(d.L2, 1.0)],
            dwell_span=256,
            scan_affinity=0.1,
        )
        add(
            HEAP_HOT,
            8 * KB,
            heap_page,
            backing=[(d.L2, 1.0)],
            dwell_span=256,
            scan_affinity=0.1,
        )

        # --- The Java heap strata ---------------------------------------
        add(
            HEAP_MEDIUM,
            512 * KB,
            heap_page,
            backing=[(d.L2, 0.95), (d.L3, 0.05)],
            dwell_span=1024,
        )
        # The default literal mix is kept untouched when the objprof
        # footprint what-if knob is unset: 1.0 - 0.3 != 0.7 in IEEE
        # arithmetic, and the backing weights must stay bit-identical.
        cold_mem = jvm.cold_mem_fraction
        if cold_mem is None:
            cold_backing = [(d.L3, 0.70), (d.MEM, HEAP_COLD_MEM_FRACTION)]
        else:
            if not 0.0 <= cold_mem <= 1.0:
                raise ValueError("cold_mem_fraction must be in [0, 1]")
            cold_backing = [(d.L3, 1.0 - cold_mem), (d.MEM, cold_mem)]
        add(
            HEAP_COLD,
            heap_cold_bytes,
            heap_page,
            backing=cold_backing,
            scan_affinity=1.0,
        )
        add(
            HEAP_ALLOC,
            64 * MB,
            heap_page,
            backing=[(d.L2, 1.0)],
            dwell_span=256,
            scan_affinity=6.0,
        )

        # --- Cross-chip shared state ------------------------------------
        topo: TopologyConfig = machine.topology
        shared_backing: List[Tuple[DataSource, float]] = []
        remote = sharing.remote_fraction
        if topo.has_l275 or topo.has_l25:
            shr = remote * (1.0 - sharing.modified_fraction)
            mod = remote * sharing.modified_fraction
            # Split remote hits between same-MCM (L2.5) and cross-MCM
            # (L2.75) L2s in proportion to how many of each exist.
            n_l25 = topo.live_chips_per_mcm - 1
            n_l275 = (topo.n_mcms - 1) * topo.live_chips_per_mcm
            total_remote = max(1, n_l25 + n_l275)
            f25 = n_l25 / total_remote
            f275 = n_l275 / total_remote
            if f25 > 0:
                shared_backing.append((d.L25_SHR, shr * f25))
                shared_backing.append((d.L25_MOD, mod * f25))
            if f275 > 0:
                shared_backing.append((d.L275_SHR, shr * f275))
                shared_backing.append((d.L275_MOD, mod * f275))
            shared_backing.append((d.L2, (1.0 - remote) * 0.7))
            shared_backing.append((d.L35, (1.0 - remote) * 0.3))
        else:
            shared_backing = [(d.L2, 0.7), (d.L3, 0.3)]
        add(HEAP_SHARED, 2 * MB, heap_page, backing=shared_backing)

        # --- GC support and native data ----------------------------------
        # The paper's system puts "selected garbage collector data
        # structures" in large pages along with the heap.
        # One bitmap bit covers 32 heap bytes: the mark/sweep write
        # set is extremely compact, which is why the paper sees store
        # miss rates *drop* during GC.
        add(
            GC_BITMAP,
            bitmap_bytes,
            heap_page,
            backing=[(d.L2, 0.90), (d.L3, 0.10)],
            dwell_span=256,
            scan_affinity=3.0,
        )
        add(
            DB_BUFFER,
            db_buffer_mb * MB,
            small,
            backing=[(d.L3, 0.42), (d.MEM, 0.58)],
            dwell_span=1024,
            scan_affinity=3.0,
        )
        add(
            NATIVE_DATA,
            1 * MB,
            small,
            backing=[(d.L2, 0.78), (d.L3, 0.22)],
            dwell_span=256,
        )

        return cls(regions)
