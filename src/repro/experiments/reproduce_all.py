"""Regenerate the entire paper in one call.

Runs every figure, every in-text table and every extension study at
the chosen scale, concatenates the rendered outputs into one document
(with a pass/off summary up front), and optionally writes it — the
single artifact answering "does this reproduction still hold?".

Two things keep the sweep close to the cost of its *distinct* work
rather than the sum of its experiments:

* every experiment simulates through
  :func:`repro.experiments.common.simulate`, so catalog entries that
  revisit the untouched baseline config (six of them do) reuse the
  finished run via the content-addressed
  :class:`~repro.runcache.RunCache`;
* ``run(jobs=N)`` fans the catalog out over a process pool.  Each
  experiment is deterministic in the config, so records are computed
  in any order and merged back in catalog order — the rendered
  experiment bodies are byte-identical to a serial sweep.  (Only the
  timing/cache-counter lines of the summary vary run to run; pass
  ``include_timing=False`` to render without them.)

Two more make the sweep *crash-safe*:

* the pool runs under the supervisor
  (:mod:`repro.experiments.supervisor`): per-task wall-clock
  timeouts, crashed-worker recovery, bounded retry with backoff, and
  serial fallback after repeated pool failure — a dead worker costs a
  retry, not the sweep;
* ``run(journal=PATH)`` (the CLI's ``--resume FILE``) appends one
  fsync'd JSON line per completed experiment
  (:mod:`repro.experiments.journal`); an interrupted sweep re-run with
  the same journal restarts from where it died, and the resumed
  report is byte-identical to an uninterrupted one.

Exposed on the CLI as ``python -m repro reproduce-all
[--jobs N] [--only MODULE] [--resume FILE] [--task-timeout S]
[--output FILE] [--no-timing] [--stats-json FILE]``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config import ExperimentConfig
from repro.experiments import chaos
from repro.experiments.common import bench_config
from repro.experiments.journal import SweepJournal
from repro.experiments.supervisor import (
    SupervisorPolicy,
    TaskStats,
    supervise,
)
from repro.obs import runtime as _obs
from repro.obs.trace import WALL

#: (experiment name, module, extra run() kwargs) in paper order.
CATALOG: Tuple[Tuple[str, str, dict], ...] = (
    ("Figure 2", "fig02_throughput", {}),
    ("Figure 3", "fig03_gc", {}),
    ("Figure 4", "fig04_profile", {}),
    ("Figure 5", "fig05_cpi", {}),
    ("Figure 6", "fig06_branch", {}),
    ("Figure 7", "fig07_tlb", {}),
    ("Figure 8", "fig08_l1d", {}),
    ("Figure 9", "fig09_sources", {}),
    ("Figure 10", "fig10_correlation", {}),
    ("Utilization/disks (§4.1)", "tab_utilization", {}),
    ("Large pages (§4.2.2)", "tab_large_pages", {}),
    ("Locking/SYNC (§4.2.4)", "tab_locking", {}),
    ("Baselines (§5)", "tab_baselines", {}),
    ("JIT warm-up (§4.1.2)", "exp_warmup", {}),
    ("What-if ablation", "exp_whatif", {}),
    ("Heap sweep", "exp_heap_sweep", {}),
    ("Tuning walk (§3.3)", "exp_tuning", {}),
    ("Scaling (§7)", "exp_scaling", {}),
    ("Cluster (§7)", "exp_cluster", {}),
    ("Resilience (faults)", "exp_resilience", {}),
    ("Sampling methodology", "exp_methodology", {}),
)

#: Schema of the ``--stats-json`` artifact; :func:`load_stats_dict`
#: rejects documents of any other schema.
SWEEP_STATS_SCHEMA = 4


def catalog_modules() -> List[str]:
    """The catalog's module names, in paper order."""
    return [module_name for _, module_name, _ in CATALOG]


@dataclass
class ReproductionRecord:
    """Outcome of one experiment in the sweep."""

    title: str
    module: str
    seconds: float
    rows_total: int
    rows_off: List[str]
    lines: List[str] = field(repr=False, default_factory=list)
    #: Run-cache lookups made while this experiment executed (memory
    #: and disk hits folded together).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Supervisor accounting: executions charged to this experiment,
    #: how many were retries, and how many of those hit the per-task
    #: wall-clock timeout.  A serial, failure-free run is 1/0/0.
    attempts: int = 1
    retries: int = 0
    timed_out: int = 0

    @property
    def clean(self) -> bool:
        return not self.rows_off

    def to_journal_dict(self) -> Dict[str, Any]:
        """The journal-line payload (lossless; lines stored verbatim)."""
        return {
            "title": self.title,
            "module": self.module,
            "seconds": self.seconds,
            "rows_total": self.rows_total,
            "rows_off": list(self.rows_off),
            "lines": list(self.lines),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "attempts": self.attempts,
            "retries": self.retries,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_journal_dict(cls, doc: Dict[str, Any]) -> "ReproductionRecord":
        return cls(
            title=doc["title"],
            module=doc["module"],
            seconds=float(doc["seconds"]),
            rows_total=int(doc["rows_total"]),
            rows_off=list(doc["rows_off"]),
            lines=list(doc["lines"]),
            cache_hits=int(doc.get("cache_hits", 0)),
            cache_misses=int(doc.get("cache_misses", 0)),
            attempts=int(doc.get("attempts", 1)),
            retries=int(doc.get("retries", 0)),
            timed_out=int(doc.get("timed_out", 0)),
        )


@dataclass
class ReproduceAllResult:
    config: ExperimentConfig
    records: Dict[str, ReproductionRecord]
    total_seconds: float
    #: Worker processes the sweep ran with (1 = serial).
    jobs: int = 1
    #: Modules restored from the resume journal instead of re-run.
    resumed: Tuple[str, ...] = ()
    #: Pool teardowns (worker crashes / timeouts) the supervisor
    #: survived; ``degraded`` is True if it fell back to serial.
    pool_failures: int = 0
    degraded: bool = False

    @property
    def rows_total(self) -> int:
        return sum(r.rows_total for r in self.records.values())

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.records.values())

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.records.values())

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records.values())

    @property
    def rows_off(self) -> List[Tuple[str, str]]:
        return [
            (r.title, label)
            for r in self.records.values()
            for label in r.rows_off
        ]

    def summary_lines(self, include_timing: bool = True) -> List[str]:
        """The pass/off summary.

        ``include_timing=False`` drops the wall-clock, per-experiment
        time, cache-counter and resume/retry fields — everything left
        is a pure function of the config, so two sweeps of the same
        config render it byte-identically regardless of ``jobs``,
        supervision history, or resumption.
        """
        head = (
            f"experiments: {len(self.records)}   "
            f"paper-vs-measured rows: {self.rows_total}   "
            f"off-band: {len(self.rows_off)}"
        )
        if include_timing:
            head += f"   wall clock: {self.total_seconds:.0f}s"
        lines = ["=" * 72, "FULL REPRODUCTION SWEEP", "=" * 72, head]
        if include_timing:
            run_line = (
                f"jobs: {self.jobs}   run cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses"
            )
            if self.resumed:
                run_line += f"   resumed: {len(self.resumed)}"
            if self.total_retries:
                run_line += f"   retries: {self.total_retries}"
            if self.pool_failures:
                run_line += f"   pool failures: {self.pool_failures}"
            if self.degraded:
                run_line += "   (degraded to serial)"
            lines.append(run_line)
        lines.append("")
        columns = f"  {'experiment':30s} {'rows':>5} {'off':>4}"
        if include_timing:
            columns += f" {'time':>7} {'cache':>9}"
        lines.append(columns)
        for r in self.records.values():
            row = f"  {r.title:30s} {r.rows_total:>5} {len(r.rows_off):>4}"
            if include_timing:
                row += (
                    f" {r.seconds:>6.1f}s {r.cache_hits:>4}/{r.cache_misses:<4}"
                )
            lines.append(row)
        if self.rows_off:
            lines.append("")
            lines.append("  [OFF] rows (EXPERIMENTS.md, \"Conformance bands\"):")
            for title, label in self.rows_off:
                lines.append(f"    {title}: {label}")
        return lines

    def render_lines(self, include_timing: bool = True) -> List[str]:
        lines = self.summary_lines(include_timing=include_timing)
        for r in self.records.values():
            lines.append("")
            lines.extend(r.lines)
        return lines

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable sweep stats (the CI perf-trajectory shape)."""
        return {
            "schema": SWEEP_STATS_SCHEMA,
            "wall_clock_s": round(self.total_seconds, 3),
            "jobs": self.jobs,
            "experiments": len(self.records),
            "rows_total": self.rows_total,
            "rows_off": len(self.rows_off),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed": sorted(self.resumed),
            "pool_failures": self.pool_failures,
            "degraded": self.degraded,
            "per_experiment": {
                r.module: {
                    "seconds": round(r.seconds, 3),
                    "rows": r.rows_total,
                    "off": len(r.rows_off),
                    "cache_hits": r.cache_hits,
                    "cache_misses": r.cache_misses,
                    "attempts": r.attempts,
                    "retries": r.retries,
                    "timed_out": r.timed_out,
                }
                for r in self.records.values()
            },
        }


def load_stats_dict(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Read back a ``--stats-json`` document (copied).

    Only the current schema is accepted; anything else is rejected
    rather than half-parsed.
    """
    schema = doc.get("schema")
    if schema != SWEEP_STATS_SCHEMA:
        raise ValueError(f"unsupported sweep-stats schema: {schema!r}")
    return dict(doc)


def _execute(task: Tuple[str, str, dict, ExperimentConfig]) -> ReproductionRecord:
    """Run one catalog entry and fold it into a record.

    Top-level (picklable) so it works as a process-pool target; the
    cache counters are read as a delta around the experiment so the
    record reports its own lookups whether it runs serially (shared
    in-process cache) or in a pool worker (per-worker cache, plus the
    optional shared disk tier).
    """
    from repro.runcache import default_cache

    title, module_name, kwargs, config = task
    # Chaos fault points (inert unless REPRO_CHAOS is armed *and* this
    # is a pool worker): the harness's own resilience is tested with
    # the same injection rigor the simulator applies to its SUT.
    chaos.fault_point("kill", module_name)
    chaos.fault_point("hang", module_name)
    stats = default_cache().stats
    before = stats.snapshot()
    module = importlib.import_module(f"repro.experiments.{module_name}")
    started = time.perf_counter()
    result = module.run(config, **kwargs)
    elapsed = time.perf_counter() - started
    delta = stats.since(before)
    obs = _obs._ACTIVE
    if obs is not None:
        obs.metrics.counter("experiments.completed").inc()
        obs.tracer.record(
            module_name,
            "experiment",
            start_s=started,
            duration_s=elapsed,
            clock=WALL,
            labels={"cache_hits": delta.hits + delta.disk_hits},
        )
    rows = result.rows()
    return ReproductionRecord(
        title=title,
        module=module_name,
        seconds=elapsed,
        rows_total=len(rows),
        rows_off=[r.label for r in rows if not r.ok],
        lines=result.render_lines(),
        cache_hits=delta.hits + delta.disk_hits,
        cache_misses=delta.misses,
    )


def run(
    config: Optional[ExperimentConfig] = None,
    only: Optional[List[str]] = None,
    jobs: int = 1,
    journal: Optional[Union[str, "Path"]] = None,
    policy: Optional[SupervisorPolicy] = None,
) -> ReproduceAllResult:
    """Run the full catalog (or the named subset of module names).

    Args:
        config: experiment configuration (bench scale by default).
        only: subset of catalog module names to run.  Unknown names
            raise ``ValueError`` (listing the valid ones) instead of
            silently producing an empty — and clean-looking — sweep.
        jobs: worker processes; ``1`` runs serially in-process.  The
            merged records are in catalog order either way.
        journal: path of the resume journal.  Experiments already
            completed there (same config hash, seed and git describe)
            are restored instead of re-run; every fresh completion is
            appended durably (fsync per line).
        policy: supervisor policy for the ``jobs > 1`` pool (timeouts,
            retry budget, backoff, serial-degradation threshold).
    """
    config = config if config is not None else bench_config()
    known = catalog_modules()
    if only is not None:
        unknown = sorted(set(only) - set(known))
        if unknown:
            raise ValueError(
                f"unknown experiment module(s): {', '.join(unknown)}; "
                f"valid names: {', '.join(known)}"
            )
    tasks = [
        (title, module_name, kwargs, config)
        for title, module_name, kwargs in CATALOG
        if only is None or module_name in only
    ]

    sweep_journal = (
        SweepJournal.open(journal, config) if journal is not None else None
    )
    restored: Dict[str, ReproductionRecord] = {}
    pending = []
    if sweep_journal is not None:
        for task in tasks:
            doc = sweep_journal.completed.get(task[1])
            if doc is not None:
                restored[task[1]] = ReproductionRecord.from_journal_dict(doc)
            else:
                pending.append(task)
    else:
        pending = list(tasks)

    executed: Dict[str, ReproductionRecord] = {}

    def complete(record: ReproductionRecord) -> None:
        executed[record.module] = record
        if sweep_journal is not None:
            sweep_journal.append(record.to_journal_dict())

    sweep_start = time.perf_counter()
    pool_failures = 0
    degraded = False
    try:
        if jobs > 1 and len(pending) > 1:
            def on_result(index: int, record: ReproductionRecord, tstats: TaskStats) -> None:
                record.attempts = tstats.attempts
                record.retries = tstats.retries
                record.timed_out = tstats.timeouts
                complete(record)

            outcome = supervise(
                _execute,
                pending,
                jobs,
                policy,
                on_result=on_result,
                worker_initializer=chaos.mark_pool_worker,
            )
            pool_failures = outcome.pool_failures
            degraded = outcome.degraded_serial
            _record_pool_observability(outcome.results, sweep_start)
        else:
            jobs = 1
            for task in pending:
                complete(_execute(task))
    finally:
        if sweep_journal is not None:
            sweep_journal.close()

    records: Dict[str, ReproductionRecord] = {}
    for _, module_name, _ in CATALOG:
        if only is not None and module_name not in only:
            continue
        record = executed.get(module_name) or restored.get(module_name)
        if record is not None:
            records[module_name] = record
    return ReproduceAllResult(
        config=config,
        records=records,
        total_seconds=time.perf_counter() - sweep_start,
        jobs=jobs,
        resumed=tuple(sorted(restored)),
        pool_failures=pool_failures,
        degraded=degraded,
    )


def _record_pool_observability(
    records: List[ReproductionRecord], sweep_start: float
) -> None:
    """Fold pool-worker outcomes into the parent's session, if any.

    Workers run with their own (inactive) observability state, so the
    parent reconstructs the per-experiment spans from the returned
    records.  Durations are the workers' real measurements; start
    offsets are not knowable from here, so every span is anchored at
    the sweep start and labeled accordingly.
    """
    obs = _obs._ACTIVE
    if obs is None:
        return
    for record in records:
        if record is None:
            continue
        obs.metrics.counter("experiments.completed").inc()
        obs.tracer.record(
            record.module,
            "experiment",
            start_s=sweep_start,
            duration_s=record.seconds,
            clock=WALL,
            labels={"cache_hits": record.cache_hits, "worker": "pool"},
        )
