"""Configuration dataclasses for every layer of the reproduction.

All knobs live here so an experiment is fully described by one
:class:`ExperimentConfig` value.  Defaults model the paper's system
under test: a 4-core (2 MCMs x 1 two-core chip) POWER4 server with a
1 GB Java heap in 16 MB large pages, running SPECjAppServer2004 at
injection rate 40.

Scaling note (see DESIGN.md §5): wall-clock sampling windows are scaled
from ~10^8 real cycles down to tens of thousands of simulated cycles.
Counter *ratios* — what every figure of the paper reports — are
preserved because working-set-to-capacity ratios are preserved where a
structure is simulated (L1, ERAT, TLB, predictors) and are encoded as
stationary probabilities where it is not (beyond-L2 data sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple

from repro.util.units import KB, MB

# ---------------------------------------------------------------------------
# Machine (POWER4-like)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache."""

    size_bytes: int
    line_bytes: int
    associativity: int
    #: ``"fifo"`` (POWER4 L1) or ``"lru"``.
    policy: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("size must be a whole number of sets")
        if self.policy not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy {self.policy!r}")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class TranslationConfig:
    """ERAT/TLB geometry.

    POWER4 keeps separate instruction and data ERATs whose entries are
    always 4 KB-granular (even when the underlying page is 16 MB), plus
    one unified TLB indexed by the true page.  That asymmetry is why
    the paper finds large pages help the TLB a lot while "there is room
    for improving ERAT hit rates".
    """

    ierat_entries: int = 128
    derat_entries: int = 128
    erat_associativity: int = 16
    #: ERAT entries always cover this translation granule.
    erat_page_bytes: int = 4 * KB
    tlb_entries: int = 1024
    tlb_associativity: int = 4
    base_page_bytes: int = 4 * KB
    large_page_bytes: int = 16 * MB


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Direction predictor + indirect-target "count cache" geometry.

    The tables are finite so that a multi-megabyte code footprint
    aliases and overflows them — the mechanism behind the paper's ~6%
    conditional and ~5% indirect-target misprediction rates.
    """

    direction_entries: int = 16384
    target_entries: int = 8192


@dataclass(frozen=True)
class PrefetcherConfig:
    """POWER4-style sequential stream prefetcher."""

    n_streams: int = 8
    #: Consecutive line misses needed to allocate a stream.
    allocate_after: int = 2
    #: Lines kept prefetched ahead of a confirmed stream.
    depth: int = 4


@dataclass(frozen=True)
class PipelineLatencies:
    """Cycle costs charged by the cycle-accounting pipeline model.

    Values are effective *exposed* penalties on a superscalar,
    out-of-order core, not raw structural latencies: e.g. a single L1D
    load miss that hits in L2 is almost fully hidden (the paper: "the
    front-end is capable of supplying useful work while L1 misses are
    being serviced"), which is why Figure 10 finds raw L1D miss counts
    only weakly correlated with CPI.
    """

    #: Best-case CPI of the core with no stalls (superscalar).
    base_cpi: float = 0.52
    #: Exposed penalty of an L1D load miss satisfied by the local L2.
    data_from_l2: float = 2.0
    data_from_l25: float = 40.0
    data_from_l275: float = 55.0
    data_from_l3: float = 70.0
    data_from_l35: float = 95.0
    data_from_mem: float = 280.0
    #: Extra startup cost when a burst of misses allocates a new
    #: prefetch stream (the burst itself is what stalls the pipeline).
    stream_alloc: float = 70.0
    inst_from_l2: float = 11.0
    inst_from_l3: float = 80.0
    inst_from_mem: float = 280.0
    branch_mispredict: float = 21.0
    target_mispredict: float = 17.0
    #: DERAT miss serviced by the TLB (paper: >=14 cycles including the
    #: segment-lookaside lookup; loads retry every 7 cycles meanwhile).
    derat_miss: float = 14.0
    ierat_miss: float = 5.0
    tlb_miss: float = 90.0
    sync: float = 40.0
    stcx_fail: float = 25.0
    #: POWER4 retries a load every this many cycles during a DERAT miss;
    #: used to convert translation stalls into extra dispatches.
    derat_retry_period: float = 7.0
    #: Instructions flushed and re-fetched per branch misprediction
    #: (contributes to the dispatched-but-not-completed population).
    flush_width: float = 10.0
    #: Cost of a load satisfied by a prefetched (covered) line.
    covered_prefetch: float = 1.0
    #: Exposed penalty of an L1D store miss (write-through queues hide
    #: most of it).
    store_miss: float = 0.5
    #: Baseline dispatches per completed instruction from group
    #: formation, cracking and speculative overfetch — the bulk of the
    #: paper's ~2.2-2.5x "speculation rate", which it notes is "not
    #: entirely due to branch mispredictions".
    base_overdispatch: float = 2.05
    #: Relative std-dev of per-window dispatch noise (group-formation
    #: effects), which keeps the speculation rate only weakly
    #: correlated with CPI as the paper observes.
    dispatch_noise: float = 0.18
    #: SRQ occupancy cycles charged per SYNC instruction.
    sync_srq_cycles: float = 35.0
    #: Extra dispatches per DERAT-missing load (retry every
    #: ``derat_retry_period`` cycles while translation resolves).
    derat_redispatch: float = 1.3
    #: Extra dispatches per L2-serviced L1D load miss.
    l2_miss_redispatch: float = 1.7


@dataclass(frozen=True)
class TopologyConfig:
    """Chips, MCMs and live L2s (footnote 3 of the paper).

    The paper's 4-core system has two MCMs, each with a single live
    two-core chip — hence exactly one live L2 per MCM and *no* L2.5
    traffic.  Enabling more chips per MCM makes L2.5 sourcing possible.
    """

    n_mcms: int = 2
    live_chips_per_mcm: int = 1
    cores_per_chip: int = 2

    @property
    def n_cores(self) -> int:
        return self.n_mcms * self.live_chips_per_mcm * self.cores_per_chip

    @property
    def has_l25(self) -> bool:
        """True if another live L2 exists on the same MCM."""
        return self.live_chips_per_mcm > 1

    @property
    def has_l275(self) -> bool:
        """True if a live L2 exists on a different MCM."""
        return self.n_mcms > 1


@dataclass(frozen=True)
class MachineConfig:
    """The full hardware description."""

    l1i: CacheGeometry = CacheGeometry(32 * KB, 128, 2, "fifo")
    l1d: CacheGeometry = CacheGeometry(32 * KB, 128, 2, "fifo")
    translation: TranslationConfig = TranslationConfig()
    branch: BranchPredictorConfig = BranchPredictorConfig()
    prefetcher: PrefetcherConfig = PrefetcherConfig()
    latencies: PipelineLatencies = PipelineLatencies()
    topology: TopologyConfig = TopologyConfig()


# ---------------------------------------------------------------------------
# JVM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GcCostModel:
    """Costs of the mark-sweep-compact collector's phases.

    Defaults reproduce the paper's Figure 3 inset: ~26 s between GCs,
    300-400 ms pauses of which >80% is mark, ~1.3% of runtime in GC,
    and no compaction during a 60-minute run.
    """

    #: Mark visits live objects: cost per MB of live data.
    mark_ms_per_live_mb: float = 1.45
    #: Sweep walks the whole heap: cost per MB of heap.
    sweep_ms_per_heap_mb: float = 0.062
    #: Compaction cost per MB of heap, when it runs.
    compact_ms_per_heap_mb: float = 3.0
    #: Compact only when dark matter exceeds this fraction of the heap.
    compact_dark_matter_fraction: float = 0.12
    #: Fraction of swept garbage stranded as unusable "dark matter"
    #: (tuned so dark matter grows ~1 MB/min at the default load).
    dark_matter_per_sweep_fraction: float = 0.00056
    #: GC triggers when free heap falls below this fraction.
    trigger_free_fraction: float = 0.02


@dataclass(frozen=True)
class JvmConfig:
    """JVM/heap/JIT parameters (IBM J9-like, throughput-tuned)."""

    heap_mb: int = 1024
    #: Use 16 MB pages for the Java heap (AIX + JVM configuration the
    #: paper evaluates; turning this off is the §4.2.2 ablation).
    heap_large_pages: bool = True
    #: Place JIT-compiled code in large pages (the paper's proposed
    #: future optimization; off on the measured system).
    code_large_pages: bool = False
    #: Steady-state live set (reachable data) in MB; the paper reports
    #: <200 MB reachable at the end of the run.
    live_set_mb: float = 190.0
    gc: GcCostModel = GcCostModel()
    #: Number of JIT-compiled methods observed by tprof (~8500).
    n_jited_methods: int = 8500
    #: The "warm" head of the profile: this many methods cover
    #: ``warm_share`` of JITed time (224 methods / 50% in the paper).
    warm_methods: int = 224
    warm_share: float = 0.50
    #: Mean machine-code size per JITed method after inlining.  8500
    #: methods x ~2 KB gives the multi-megabyte code footprint that
    #: cannot fit in the L2 cache.
    mean_code_bytes: int = 2048
    #: Fraction of virtual call sites the JIT converts to relative
    #: branches (the paper's proposed devirtualization optimization;
    #: 0 on the measured system).
    devirtualize_fraction: float = 0.0
    #: Fraction of cold-heap accesses sourced from memory (vs. L3).
    #: None keeps the measured system's backing mix; the objprof
    #: "shrink top-site footprint" what-if lowers it to model a
    #: smaller resident set caching better.
    cold_mem_fraction: Optional[float] = None
    #: Lifetime-segregate the churn allocation sites (string/buffer
    #: temporaries) into denser sequential runs, as the objprof
    #: "segregate churn sites" what-if proposes; off on the measured
    #: system.
    churn_segregated: bool = False


# ---------------------------------------------------------------------------
# Workload (SPECjAppServer2004-like)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransactionSpec:
    """Static description of one benchmark transaction type.

    ``cpu_ms`` maps software component -> milliseconds of CPU demand per
    transaction; components are the Figure 4 categories
    (``was_jited``, ``was_nonjited``, ``web``, ``db2``, ``kernel``).
    The micro-behavior knobs (``*_intensity``) feed the instruction
    stream generator: they scale locking, streaming (sequential
    scanning), and cold-data touching relative to the workload average.
    """

    name: str
    #: ``"web"`` (HTTP, 2 s deadline) or ``"rmi"`` (5 s deadline).
    protocol: str
    #: Fraction of all injected operations of this type.
    share: float
    cpu_ms: Mapping[str, float]
    #: Database queries issued per transaction.
    db_queries: float
    #: Heap bytes allocated per transaction (KB).
    alloc_kb: float
    lock_intensity: float = 1.0
    stream_intensity: float = 1.0
    cold_intensity: float = 1.0
    shared_intensity: float = 1.0
    #: Admission priority under brownout: types below
    #: :attr:`DegradationPolicy.shed_priority_below` are shed first
    #: when the server is in sustained overload.
    priority: int = 1

    @property
    def total_cpu_ms(self) -> float:
        return sum(self.cpu_ms.values())


def _default_transactions() -> Tuple[TransactionSpec, ...]:
    """The jas2004-like dealer + manufacturing transaction mix.

    CPU component splits are chosen so the aggregate reproduces
    Figure 4: WAS uses ~2x the cycles of web server + DB2 combined,
    half of WAS time is outside JITed code, and ~20% of CPU time is
    kernel/system.  Per-type spreads (Browse scans, Purchase locks,
    WorkOrder computes) create the inter-window variance that drives
    the Figure 10 correlations.
    """
    return (
        TransactionSpec(
            name="Browse",
            protocol="web",
            share=0.45,
            cpu_ms={
                "was_jited": 13.0,
                "was_nonjited": 13.5,
                "web": 6.0,
                "db2": 11.5,
                "kernel": 10.0,
            },
            db_queries=16.0,
            alloc_kb=420.0,
            lock_intensity=0.52,
            stream_intensity=1.66,
            cold_intensity=1.24,
            shared_intensity=0.68,
        ),
        TransactionSpec(
            name="Purchase",
            protocol="web",
            share=0.20,
            cpu_ms={
                "was_jited": 17.0,
                "was_nonjited": 16.0,
                "web": 4.5,
                "db2": 10.0,
                "kernel": 11.0,
            },
            db_queries=12.0,
            alloc_kb=540.0,
            lock_intensity=2.07,
            stream_intensity=0.34,
            cold_intensity=0.78,
            shared_intensity=1.56,
        ),
        TransactionSpec(
            name="Manage",
            protocol="web",
            share=0.20,
            cpu_ms={
                "was_jited": 15.5,
                "was_nonjited": 15.0,
                "web": 5.0,
                "db2": 10.5,
                "kernel": 10.5,
            },
            db_queries=11.0,
            alloc_kb=470.0,
            lock_intensity=1.12,
            stream_intensity=0.53,
            cold_intensity=0.92,
            shared_intensity=1.17,
        ),
        TransactionSpec(
            name="WorkOrder",
            protocol="rmi",
            share=0.15,
            cpu_ms={
                "was_jited": 21.0,
                "was_nonjited": 16.0,
                "web": 0.0,
                "db2": 9.5,
                "kernel": 10.0,
            },
            db_queries=9.0,
            alloc_kb=520.0,
            lock_intensity=0.86,
            stream_intensity=0.53,
            cold_intensity=0.69,
            shared_intensity=0.98,
            # Manufacturing work orders are deferrable batch work: the
            # first thing a browned-out server sheds.
            priority=0,
        ),
    )


@dataclass(frozen=True)
class SharingProfile:
    """How much workload data lives in remote caches, and in what state.

    jas2004's headline SMP finding is "very little modified traffic
    across threads" (so intelligent thread co-scheduling would not
    help); the TPC-W-like preset raises ``modified_fraction`` to
    reproduce Cain et al.'s contrasting cache-to-cache-heavy behavior.
    """

    #: Probability a shared-region L1 miss is found in a remote L2.
    remote_fraction: float = 0.80
    #: Of remote hits, the fraction found in Modified state.
    modified_fraction: float = 0.02


@dataclass(frozen=True)
class DiskConfig:
    """Database storage: an OS RAM disk or a set of hard disks.

    The paper could only reach high utilization with a RAM disk or
    "more disks": with 2 hard disks I/O wait grew until response-time
    deadlines were missed.
    """

    kind: str = "ram"  # "ram" | "hdd"
    n_disks: int = 1
    #: Per-request service time.
    service_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ("ram", "hdd"):
            raise ValueError(f"unknown disk kind {self.kind!r}")
        if self.n_disks <= 0:
            raise ValueError("need at least one disk")

    @staticmethod
    def ram_disk() -> "DiskConfig":
        return DiskConfig(kind="ram", n_disks=1, service_ms=0.05)

    @staticmethod
    def hard_disks(n: int, service_ms: float = 9.5) -> "DiskConfig":
        return DiskConfig(kind="hdd", n_disks=n, service_ms=service_ms)


@dataclass(frozen=True)
class ResponseTimeRequirements:
    """The benchmark's pass criteria (Section 2 of the paper)."""

    web_deadline_s: float = 2.0
    rmi_deadline_s: float = 5.0
    quantile: float = 90.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Driver + SUT configuration."""

    injection_rate: int = 40
    #: Operations injected per second per unit of IR (the paper: ~1.6
    #: JOPS per IR on a tuned system).
    ops_per_ir: float = 1.6
    duration_s: float = 3600.0
    ramp_up_s: float = 300.0
    ramp_down_s: float = 120.0
    tick_s: float = 0.1
    transactions: Tuple[TransactionSpec, ...] = field(
        default_factory=_default_transactions
    )
    disk: DiskConfig = DiskConfig.ram_disk()
    requirements: ResponseTimeRequirements = ResponseTimeRequirements()
    #: Application-server worker threads.
    thread_pool: int = 60
    #: Database buffer-pool hit ratio after tuning.
    buffer_pool_hit: float = 0.72
    #: Admission control: operations beyond this many in flight are
    #: rejected (an overloaded SUT sheds load instead of dying).
    max_in_flight: int = 1500
    #: Cross-chip data-sharing character of the workload.
    sharing: SharingProfile = SharingProfile()

    def __post_init__(self) -> None:
        total_share = sum(t.share for t in self.transactions)
        if abs(total_share - 1.0) > 1e-6:
            raise ValueError(f"transaction shares sum to {total_share}, not 1")
        if self.injection_rate <= 0:
            raise ValueError("injection rate must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick must be positive")

    @property
    def target_ops_per_s(self) -> float:
        return self.injection_rate * self.ops_per_ir


# ---------------------------------------------------------------------------
# Faults and resilience
# ---------------------------------------------------------------------------

#: Fault kinds understood by the simulators (see
#: :mod:`repro.workload.faults` for their runtime semantics).
FAULT_KINDS: Tuple[str, ...] = (
    "tier_crash",
    "db_slowdown",
    "disk_degraded",
    "net_latency",
    "net_loss",
    "gc_pressure",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a component degrades at ``start_s`` and
    recovers ``duration_s`` later.

    ``magnitude`` is kind-specific:

    * ``tier_crash`` — unused; the target is down for the duration.
    * ``db_slowdown`` — multiplier on DB2 per-query CPU cost and on
      the buffer-pool miss probability (lock contention + working-set
      spill).
    * ``disk_degraded`` — multiplier on per-request disk service time
      (a failing spindle, RAID rebuild, saturated controller).
    * ``net_latency`` — multiplier on the cluster's per-hop
      interconnect latency.
    * ``net_loss`` — per-transaction drop probability on the cluster
      interconnect (0..1).
    * ``gc_pressure`` — extra live-set megabytes pinned while active
      (a leak or cache blow-up inflating heap occupancy).
    """

    kind: str
    start_s: float
    duration_s: float
    magnitude: float = 1.0
    #: App blade index for cluster ``tier_crash``; -1 means the whole
    #: server (single-server SUT) or every app blade (cluster).
    target: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("fault must start at t>=0 and last >0 s")
        if self.kind == "net_loss" and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("net_loss magnitude is a probability")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def active_at(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout + retry with exponential backoff and jitter.

    Disabled by default: the stock benchmark driver never retries, and
    an empty policy keeps runs bit-identical to the pre-fault
    simulator.  When enabled, a request unanswered after its protocol
    timeout is abandoned by the client (the server may still finish it
    as wasted zombie work) and re-injected after a jittered
    exponential backoff, up to ``max_attempts`` total attempts and
    subject to a retry budget.
    """

    enabled: bool = False
    timeout_web_s: float = 4.0
    timeout_rmi_s: float = 10.0
    #: Total attempts per logical operation (first try included).
    max_attempts: int = 3
    backoff_base_s: float = 0.4
    backoff_factor: float = 2.0
    backoff_cap_s: float = 5.0
    #: Uniform jitter fraction applied to each backoff delay.
    jitter: float = 0.5
    #: Retries may not exceed this fraction of first attempts (a
    #: client-side budget that prevents retry storms).
    retry_budget: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")

    def timeout_s(self, protocol: str) -> float:
        return self.timeout_web_s if protocol == "web" else self.timeout_rmi_s


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation: brownout instead of hard rejection.

    When in-flight load stays above ``brownout_threshold`` of
    ``max_in_flight`` for ``sustain_ticks`` consecutive ticks, the app
    server sheds a growing fraction of low-priority arrivals
    (transaction types with ``priority < shed_priority_below``) so
    high-priority work keeps meeting its deadlines.  Disabled by
    default (the stock server only hard-rejects at ``max_in_flight``).
    """

    enabled: bool = False
    brownout_threshold: float = 0.55
    sustain_ticks: int = 5
    #: Shed fraction ramps linearly from 0 at the threshold to this
    #: value at ``max_in_flight``.
    max_shed_fraction: float = 0.95
    shed_priority_below: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.brownout_threshold <= 1.0:
            raise ValueError("brownout_threshold must be in (0, 1]")
        if not 0.0 <= self.max_shed_fraction <= 1.0:
            raise ValueError("max_shed_fraction must be in [0, 1]")


@dataclass(frozen=True)
class FaultConfig:
    """The complete resilience configuration of an experiment.

    The default value (no events, retry and degradation disabled) is
    guaranteed zero-cost: a run with ``FaultConfig()`` is bit-identical
    to one from before the subsystem existed.
    """

    events: Tuple[FaultEvent, ...] = ()
    retry: RetryPolicy = RetryPolicy()
    degradation: DegradationPolicy = DegradationPolicy()

    @property
    def is_active(self) -> bool:
        """True if any part of the subsystem can alter a run."""
        return bool(self.events) or self.retry.enabled or self.degradation.enabled


# ---------------------------------------------------------------------------
# Sampling (hpmstat)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingConfig:
    """How hpmstat windows map onto the run."""

    #: Simulated cycles per sampling window (scaled stand-in for the
    #: ~10^8 real cycles of a 0.1 s window).
    window_cycles: int = 30000
    #: Virtual seconds represented by one window.
    window_interval_s: float = 0.1
    #: Windows executed before counters are trusted (cache warm-up).
    warmup_windows: int = 12


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    seed: int = 2007
    machine: MachineConfig = MachineConfig()
    jvm: JvmConfig = JvmConfig()
    workload: WorkloadConfig = WorkloadConfig()
    sampling: SamplingConfig = SamplingConfig()
    faults: FaultConfig = FaultConfig()

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)
