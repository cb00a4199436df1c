"""The end-to-end characterization orchestrator.

One :class:`Characterization` reproduces the paper's whole campaign for
a given :class:`~repro.config.ExperimentConfig`:

1. run the workload to steady state (:mod:`repro.workload`);
2. build the code/address models and bridge the run's timeline into
   per-window phase descriptors;
3. sample the hardware performance monitor — omnisciently for the
   aggregate hardware summary and time-series figures, group-by-group
   for the CPI correlation study;
4. fold in the software tools (tprof, verbosegc) and the profile-shape
   analysis;
5. derive the optimization-opportunity findings.

Everything is deterministic in the config's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import ExperimentConfig
from repro.core.correlation import CpiCorrelationReport, CpiCorrelationStudy
from repro.core.profile_analysis import ProfileAnalysis, analyze_profile
from repro.cpu.core_model import CoreModel
from repro.cpu.regions import AddressSpace
from repro.cpu.sources import DataSource, InstSource
from repro.hpm.counters import CounterSnapshot
from repro.hpm.events import DATA_SOURCE_EVENTS, INST_SOURCE_EVENTS, Event
from repro.hpm.hpmstat import HpmSample, HpmStat
from repro.jvm.jit import JitCompiler
from repro.jvm.methods import MethodRegistry
from repro.tools.tprof import TprofReport
from repro.tools.verbosegc import GcSummary, VerboseGcLog
from repro.util.rng import RngFactory
from repro.workload.bridge import WorkloadPhaseSchedule
from repro.workload.metrics import BenchmarkReport, evaluate_run
from repro.workload.sut import RunResult


@dataclass(frozen=True)
class HardwareSummary:
    """Aggregated counter ratios over the sampled windows."""

    instructions: int
    cpi: float
    speculation_rate: float
    instr_per_load: float
    instr_per_store: float
    l1d_load_miss_rate: float
    l1d_store_miss_rate: float
    l1d_miss_rate: float
    data_source_shares: Dict[DataSource, float]
    inst_source_shares: Dict[InstSource, float]
    cond_mispredict_rate: float
    target_mispredict_rate: float
    branches_per_instr: float
    derat_miss_per_instr: float
    ierat_miss_per_instr: float
    dtlb_miss_per_instr: float
    itlb_miss_per_instr: float
    tlb_satisfies_derat: float
    instr_per_larx: float
    stcx_fail_rate: float
    sync_srq_fraction: float
    stream_allocs_per_kinstr: float
    l1_prefetch_per_kinstr: float

    @classmethod
    def from_snapshots(cls, snapshots: Sequence[CounterSnapshot]) -> "HardwareSummary":
        if not snapshots:
            raise ValueError("no snapshots to summarize")
        # Single-pass aggregation into one mutable dict; the pairwise
        # merged_with() chain this replaces copied the full event dict
        # per snapshot (O(n^2) in the window count).
        totals: Dict[Event, int] = {}
        for s in snapshots:
            for ev, count in s.counts.items():
                totals[ev] = totals.get(ev, 0) + count
        agg = CounterSnapshot(counts=totals)
        n = max(1, agg.instructions)
        e = Event
        data_total = sum(agg[ev] for ev in DATA_SOURCE_EVENTS) or 1
        inst_total = sum(agg[ev] for ev in INST_SOURCE_EVENTS) or 1
        derat = agg[e.PM_DERAT_MISS]
        dtlb = agg[e.PM_DTLB_MISS]
        return cls(
            instructions=agg.instructions,
            cpi=agg.cpi,
            speculation_rate=agg.speculation_rate,
            instr_per_load=n / max(1, agg[e.PM_LD_REF_L1]),
            instr_per_store=n / max(1, agg[e.PM_ST_REF_L1]),
            l1d_load_miss_rate=agg.l1d_load_miss_rate,
            l1d_store_miss_rate=agg.l1d_store_miss_rate,
            l1d_miss_rate=agg.l1d_miss_rate,
            data_source_shares={
                src: agg[src.event] / data_total for src in DataSource
            },
            inst_source_shares={
                src: agg[src.event] / inst_total for src in InstSource
            },
            cond_mispredict_rate=agg.branch_mispredict_rate,
            target_mispredict_rate=agg.indirect_mispredict_rate,
            branches_per_instr=agg[e.PM_BR_CMPL] / n,
            derat_miss_per_instr=derat / n,
            ierat_miss_per_instr=agg[e.PM_IERAT_MISS] / n,
            dtlb_miss_per_instr=dtlb / n,
            itlb_miss_per_instr=agg[e.PM_ITLB_MISS] / n,
            tlb_satisfies_derat=1.0 - dtlb / derat if derat else 1.0,
            instr_per_larx=n / max(1, agg[e.PM_LARX]),
            stcx_fail_rate=agg[e.PM_STCX_FAIL] / max(1, agg[e.PM_STCX]),
            sync_srq_fraction=agg.sync_srq_fraction,
            stream_allocs_per_kinstr=1000.0 * agg[e.PM_STREAM_ALLOC] / n,
            l1_prefetch_per_kinstr=1000.0 * agg[e.PM_L1_PREF] / n,
        )

    @property
    def memory_ops_per_instr(self) -> float:
        return 1.0 / self.instr_per_load + 1.0 / self.instr_per_store

    @property
    def modified_remote_share(self) -> float:
        """Share of L1D miss sources that were modified c2c transfers."""
        return self.data_source_shares.get(
            DataSource.L25_MOD, 0.0
        ) + self.data_source_shares.get(DataSource.L275_MOD, 0.0)


@dataclass
class CharacterizationReport:
    """Everything the study produced."""

    config: ExperimentConfig
    benchmark: BenchmarkReport
    gc: GcSummary
    profile: ProfileAnalysis
    component_shares: Dict[str, float]
    hottest_method_name: str
    jas2004_share: float
    hardware: HardwareSummary
    correlations: Optional[CpiCorrelationReport] = None
    #: Per-event cycle-cost decomposition fitted to the sampled
    #: windows (None when too few windows were sampled).
    cpi_decomposition: Optional[object] = None
    findings: List = field(default_factory=list)


class Characterization:
    """Builds and runs the whole study for one configuration."""

    #: The core-model implementation windows execute on.  A seam for
    #: tests and benchmarks: ``benchmarks/test_core_kernels.py`` and
    #: ``tests/cpu/test_reference_equivalence.py`` rebind it to
    #: :class:`repro.cpu.reference.ReferenceCoreModel`, the pinned
    #: pre-optimization oracle; both :attr:`core` and
    #: :meth:`group_core` build through it.
    core_model_cls = CoreModel

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._rngs = RngFactory(config.seed)
        self._result: Optional[RunResult] = None
        self._registry: Optional[MethodRegistry] = None
        self._space: Optional[AddressSpace] = None
        self._core: Optional[CoreModel] = None
        self._hpm: Optional[HpmStat] = None
        self._jit: Optional[JitCompiler] = None
        self._warmed = False

    # ------------------------------------------------------------------
    # Lazy construction
    # ------------------------------------------------------------------
    @property
    def result(self) -> RunResult:
        if self._result is None:
            # Routed through the shared run cache: the key is the
            # config plus the "workload" fork label, which reproduces
            # exactly the factory this property used to build inline
            # (RngFactory(seed).fork("workload")), so the run is
            # bit-identical to an uncached one.
            from repro.experiments.common import simulate

            self._result = simulate(self.config, rng_fork="workload")
        return self._result

    @property
    def space(self) -> AddressSpace:
        if self._space is None:
            self._space = AddressSpace.build(
                self.config.machine, self.config.jvm, self.config.workload.sharing
            )
        return self._space

    @property
    def registry(self) -> MethodRegistry:
        if self._registry is None:
            self._registry = MethodRegistry(
                self.config.jvm, self.space, self._rngs.stream("registry")
            )
        return self._registry

    @property
    def jit(self) -> JitCompiler:
        if self._jit is None:
            # The compilation backlog drains during the ramp: by the
            # time the steady-state window opens, the hot code is
            # compiled (the paper's long run guaranteed the same
            # before its last-5-minutes profile).
            ramp = self.config.workload.ramp_up_s
            rate = self.config.jvm.n_jited_methods / max(30.0, 0.6 * ramp)
            self._jit = JitCompiler(
                self.registry,
                self._rngs.stream("jit"),
                methods_per_second=rate,
            )
        return self._jit

    @property
    def core(self) -> CoreModel:
        if self._core is None:
            schedule = WorkloadPhaseSchedule(
                self.result,
                self.registry,
                self.space,
                self._rngs.fork("bridge"),
                jit=self.jit,
            )
            self._core = self.core_model_cls(
                self.config.machine,
                self.space,
                schedule,
                self.config.sampling,
                self._rngs.fork("cpu"),
            )
        return self._core

    @property
    def hpm(self) -> HpmStat:
        if self._hpm is None:
            self._hpm = HpmStat(
                self.core, self.config.sampling.window_interval_s
            )
        return self._hpm

    def ensure_warm(self) -> None:
        if not self._warmed:
            self.core.warm_up(range(self.config.sampling.warmup_windows))
            self._warmed = True

    # ------------------------------------------------------------------
    # Sampling helpers (used by the figure experiments too)
    # ------------------------------------------------------------------
    def sample_windows(self, n: int, start: int = 0) -> List[HpmSample]:
        """Omnisciently sample ``n`` consecutive windows.

        The windows run serially on :attr:`core` (warmed first), each
        inheriting the hardware state and RNG stream positions the
        previous window left behind.
        """
        self.ensure_warm()
        return self.hpm.sample_all(range(start, start + n))

    def group_core(self, group_name: str) -> CoreModel:
        """A fresh warmed core beside :attr:`core`, for benchmarks.

        The core draws from RNG forks named after ``group_name``
        (``bridge.corr.<name>`` / ``cpu.corr.<name>``), which derive from
        the config seed alone, so every call builds the same core in the
        same state: the ``characterize_windows`` bench kernel builds
        each repetition's core this way.
        """
        schedule = WorkloadPhaseSchedule(
            self.result,
            self.registry,
            self.space,
            self._rngs.fork(f"bridge.corr.{group_name}"),
            jit=self.jit,
        )
        core = self.core_model_cls(
            self.config.machine,
            self.space,
            schedule,
            self.config.sampling,
            self._rngs.fork(f"cpu.corr.{group_name}"),
        )
        core.warm_up(range(self.config.sampling.warmup_windows))
        return core

    # ------------------------------------------------------------------
    # The full study
    # ------------------------------------------------------------------
    def run(
        self,
        hw_windows: int = 120,
        correlation_windows_per_group: int = 40,
    ) -> CharacterizationReport:
        """Run the complete characterization.

        Args:
            hw_windows: windows for the aggregate hardware summary.
            correlation_windows_per_group: windows measured per counter
                group for the Figure 10 study (0 disables it): one
                shared core cycled through the counter groups, exactly
                as hpmstat cycles groups on one machine.
        """
        from repro.core.insights import derive_findings

        benchmark = evaluate_run(self.result)
        gc_summary = VerboseGcLog(
            self.result.gc_events, self.config.workload.duration_s
        ).summary()
        tprof = TprofReport(self.result, self.registry, jit=self.jit)
        profile = analyze_profile([m.weight for m in self.registry.methods])

        samples = self.sample_windows(hw_windows)
        snapshots = [s.snapshot for s in samples]
        hardware = HardwareSummary.from_snapshots(snapshots)

        from repro.core.regression import DEFAULT_PREDICTORS, decompose_cpi

        decomposition = None
        if len(snapshots) >= len(DEFAULT_PREDICTORS) + 2:
            decomposition = decompose_cpi(snapshots)

        correlations = None
        if correlation_windows_per_group:
            correlations = CpiCorrelationStudy(self.hpm).run(
                windows_per_group=correlation_windows_per_group,
                start_window=hw_windows,
            )

        report = CharacterizationReport(
            config=self.config,
            benchmark=benchmark,
            gc=gc_summary,
            profile=profile,
            component_shares=tprof.component_shares(),
            hottest_method_name=tprof.hottest_method().name,
            jas2004_share=tprof.jas2004_share(),
            hardware=hardware,
            correlations=correlations,
            cpi_decomposition=decomposition,
        )
        report.findings = derive_findings(report)
        return report
