"""Command-line interface: ``python -m repro <command>``.

Commands::

    characterize   run the full characterization and print the report
    figure N       regenerate one of the paper's figures (2-10)
    tables         regenerate the in-text tables
    whatif         estimate + validate the enhancement scenarios
    objprof        object-centric heap profile: per-site miss
                   attribution, lifetimes, top inefficient objects,
                   and the site-targeted what-ifs
    scaling        the processor-scaling study (future work)
    tuning         the Section 3.3 tuning walk
    cluster        single server vs blade cluster (future work)
    resilience     fault injection, retries and graceful degradation
    warmup         the JIT warm-up dynamic (why profile the last 5 min)
    heap-sweep     GC behavior across heap sizes
    methodology    sampling-budget ablation for the correlation study
    compare        jas2004 vs the simple-benchmark baselines
    reproduce-all  regenerate the entire paper into one report
                   (supervised worker pool; --resume FILE makes the
                   sweep crash-safe and resumable)
    cache          run-cache maintenance: verify / gc / stats
    profile        profile the core-model hot paths (cProfile top-N,
                   sampling flat profile, flamegraph, host-cost drivers)
    conform        the paper-conformance gate (golden bands + waivers)
    trace          run an instrumented sample and export spans/metrics
    bench          run the best-of-N kernel suite; append to the
                   bench-history trajectory
    perf-diff      compare two bench-history records
    perf-gate      the statistical perf-regression gate (exit 0/1)

Every command accepts ``--scale quick|bench|full`` (default ``quick``)
and ``--seed N``.  ``characterize``, ``figure`` and ``reproduce-all``
also accept ``--trace-json FILE`` to run under an observability
session and export the span trace plus a run manifest.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import ExperimentConfig


def _config(args: argparse.Namespace) -> ExperimentConfig:
    from repro.experiments.common import bench_config, quick_config
    from repro.workload.presets import jas2004

    if getattr(args, "config", None):
        from repro.config_io import load_config

        return load_config(args.config)
    if args.scale == "full":
        base = jas2004(duration_s=3600.0, seed=args.seed)
    elif args.scale == "bench":
        base = bench_config(seed=args.seed)
    else:
        base = quick_config(seed=args.seed)
    return base


def _emit(lines: List[str]) -> None:
    print("\n".join(lines))


def _with_tracing(handler):
    """Wrap a command handler with the ``--trace-json`` protocol.

    When the flag is set the whole command body runs under an
    observability session; afterwards the span trace is written to the
    given path and a run manifest (config keys, seeds, cache
    provenance, metric snapshot) next to it.
    """

    def wrapped(args: argparse.Namespace) -> int:
        path = getattr(args, "trace_json", None)
        if not path:
            return handler(args)
        from pathlib import Path

        from repro.obs import observe, write_manifest

        with observe() as obs:
            code = handler(args)
        target = Path(path)
        target.write_text(obs.tracer.to_json() + "\n")
        manifest = target.with_suffix(".manifest.json")
        write_manifest(
            manifest,
            obs,
            extra={
                "command": args.command,
                "scale": getattr(args, "scale", None),
                "seed": getattr(args, "seed", None),
            },
        )
        print(f"trace written to {target}; run manifest to {manifest}")
        return code

    return wrapped


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro import Characterization, render_report

    study = Characterization(_config(args))
    report = study.run(
        hw_windows=args.windows,
        correlation_windows_per_group=args.windows,
        correlation_jobs=args.jobs,
    )
    print(render_report(report))
    return 0


_FIGURES = {
    2: ("fig02_throughput", {}),
    3: ("fig03_gc", {}),
    4: ("fig04_profile", {}),
    5: ("fig05_cpi", {}),
    6: ("fig06_branch", {}),
    7: ("fig07_tlb", {}),
    8: ("fig08_l1d", {}),
    9: ("fig09_sources", {}),
    10: ("fig10_correlation", {}),
}


def cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    if args.number not in _FIGURES:
        print(f"no figure {args.number}; choose from {sorted(_FIGURES)}")
        return 2
    module_name, kwargs = _FIGURES[args.number]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    if args.number == 10 and args.jobs > 1:
        kwargs = dict(kwargs, jobs=args.jobs)
    result = module.run(_config(args), **kwargs)
    _emit(result.render_lines())
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    import importlib

    for name in ("tab_utilization", "tab_large_pages", "tab_locking", "tab_baselines"):
        module = importlib.import_module(f"repro.experiments.{name}")
        result = module.run(_config(args))
        _emit(result.render_lines())
    return 0


def _simple_experiment(module_name: str):
    def handler(args: argparse.Namespace) -> int:
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        result = module.run(_config(args))
        _emit(result.render_lines())
        return 0

    return handler


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import tab_baselines

    result = tab_baselines.run(_config(args))
    _emit(result.render_lines())
    return 0


def cmd_objprof(args: argparse.Namespace) -> int:
    from repro.experiments import exp_objprof

    result = exp_objprof.run(
        _config(args),
        hw_windows=args.windows,
        top_n=args.top,
        validate=not args.no_validate,
    )
    _emit(result.render_lines())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"\nsite ranking JSON written to {args.json}")
    return 0


def cmd_save_config(args: argparse.Namespace) -> int:
    from repro.config_io import save_config

    save_config(_config(args), args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.cprofile import profile_windows

    report = profile_windows(
        _config(args), windows=args.windows, top_n=args.top
    )
    _emit(report.render_lines())
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(report.to_json() + "\n")
        print(f"\nprofile JSON written to {args.json}")
    if args.flamegraph or args.self_flat:
        from repro.perf.flatprofile import write_collapsed_stacks
        from repro.perf.sampler import self_profile

        sp = self_profile(
            _config(args), windows=args.windows, interval_s=args.interval
        )
        _emit(sp.render_lines(top_n=args.top))
        if args.flamegraph:
            write_collapsed_stacks(args.flamegraph, sp.log)
            print(
                f"\ncollapsed stacks ({len(sp.log)} samples) written to "
                f"{args.flamegraph}"
            )
    if args.correlate:
        from repro.perf.selfcorr import host_cost_correlation

        corr = host_cost_correlation(_config(args), windows=max(args.windows, 12))
        _emit(corr.render_lines(top_n=args.top))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchio import write_bench_json
    from repro.perf.benchsuite import (
        SUITE_KIND,
        render_suite_lines,
        run_suite,
        suite_spread,
    )
    from repro.perf.history import append_record, describe_record, read_history

    kernels = args.kernels.split(",") if args.kernels else None
    results = run_suite(quick=args.quick, reps=args.reps, kernels=kernels)
    _emit(render_suite_lines(results, args.reps))
    spread = suite_spread(results)
    if args.no_record:
        record = None
    else:
        record = append_record(
            args.history, results, SUITE_KIND, repetitions=args.reps, spread=spread
        )
        history = read_history(args.history, kind=SUITE_KIND)
        print(
            f"\nrecorded trajectory point {len(history)} in {args.history}: "
            f"{describe_record(record)}"
        )
    if args.json:
        write_bench_json(
            args.json, results, SUITE_KIND, repetitions=args.reps, spread=spread
        )
        print(f"suite envelope written to {args.json}")
    return 0


def cmd_perf_diff(args: argparse.Namespace) -> int:
    from repro.perf.gate import diff_lines
    from repro.perf.history import read_history

    records = read_history(args.history)
    if len(records) < 2:
        print(
            f"history {args.history} has {len(records)} record(s); "
            "need two to diff (run `repro bench`)"
        )
        return 2
    try:
        a = records[args.a]
        b = records[args.b]
    except IndexError:
        print(
            f"record index out of range: history has {len(records)} records, "
            f"asked for {args.a} and {args.b}"
        )
        return 2
    lines = diff_lines(a, b)
    _emit(lines)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"\nperf-diff report written to {args.output}")
    return 0


def cmd_perf_gate(args: argparse.Namespace) -> int:
    from repro.perf.benchsuite import SUITE_KIND
    from repro.perf.gate import (
        DEFAULT_ALPHA,
        DEFAULT_FAIL_RATIO,
        DEFAULT_WARN_RATIO,
        evaluate_gate,
    )
    from repro.perf.history import read_history

    records = read_history(args.history, kind=args.kind or SUITE_KIND)
    report = evaluate_gate(
        records,
        fail_ratio=args.fail_ratio if args.fail_ratio is not None else DEFAULT_FAIL_RATIO,
        warn_ratio=args.warn_ratio if args.warn_ratio is not None else DEFAULT_WARN_RATIO,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
    )
    _emit(report.render_lines())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"\ngate JSON written to {args.json}")
    return 0 if report.passed else 1


def cmd_reproduce_all(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from repro.experiments.reproduce_all import run as run_all
    from repro.experiments.supervisor import DEFAULT_POLICY

    only = None
    if args.only:
        # Accept both repeated flags and comma-separated lists.
        only = [
            name for chunk in args.only for name in chunk.split(",") if name
        ]
    policy = None
    if args.task_timeout is not None:
        policy = _dc.replace(DEFAULT_POLICY, task_timeout_s=args.task_timeout)
    try:
        result = run_all(
            _config(args),
            only=only,
            jobs=args.jobs,
            journal=args.resume,
            policy=policy,
        )
    except ValueError as exc:
        print(exc)
        return 2
    include_timing = not args.no_timing
    text = "\n".join(result.render_lines(include_timing=include_timing))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print("\n".join(result.summary_lines(include_timing=include_timing)))
        print(f"\nfull report written to {args.output}")
    else:
        print(text)
    if args.stats_json:
        import json
        from pathlib import Path

        Path(args.stats_json).write_text(
            json.dumps(result.stats_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"sweep stats written to {args.stats_json}")
    return 0 if len(result.rows_off) <= 3 else 1


def cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.runcache import cache_dir_stats, gc_cache_dir, verify_cache_dir

    disk_dir = args.dir or os.environ.get("REPRO_RUN_CACHE_DIR")
    if not disk_dir:
        print(
            "no cache directory: pass --dir or set REPRO_RUN_CACHE_DIR"
        )
        return 2
    if args.action == "verify":
        report = verify_cache_dir(disk_dir)
        _emit(report.render_lines())
        return 0 if report.passed else 1
    if args.action == "gc":
        removed = gc_cache_dir(disk_dir)
        print(
            f"run cache {disk_dir}: removed {removed['quarantined']} "
            f"quarantined entries, {removed['tmp']} stray tmp files"
        )
        return 0
    stats = cache_dir_stats(disk_dir)
    _emit(
        [
            f"run cache {disk_dir}",
            f"  entries: {stats['entries']} ({stats['bytes']} bytes)",
            f"  quarantined: {stats['quarantined']} "
            f"({stats['quarantine_bytes']} bytes)",
            f"  stray tmp files: {stats['tmp_strays']}",
        ]
    )
    return 0


def cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import evaluate

    report = evaluate(
        _config(args),
        include_slow=not args.skip_slow,
        hw_windows=args.windows,
    )
    _emit(report.render_lines())
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"\nconformance JSON written to {args.json}")
    return 0 if report.passed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.characterization import Characterization
    from repro.obs import audit_lines, observe, write_manifest

    with observe() as obs:
        study = Characterization(_config(args))
        study.result  # the workload run (run/gc/sim spans)
        study.sample_windows(args.windows)  # cpu spans + counters
    tracer = obs.tracer
    lines = ["Instrumented sample", "=" * 48]
    for category in sorted({s.category for s in tracer.spans}):
        spans = tracer.by_category(category)
        clock = spans[0].clock
        total = sum(s.duration_s for s in spans)
        lines.append(
            f"  {category:12s} {len(spans):6d} spans  "
            f"{total:10.3f} s ({clock})"
        )
    lines.append("-" * 48)
    lines.extend(obs.metrics.render_lines())
    lines.append("-" * 48)
    lines.append("runs:")
    lines.extend(audit_lines(obs))
    _emit(lines)
    from pathlib import Path

    if args.json:
        Path(args.json).write_text(tracer.to_json() + "\n")
        print(f"trace JSON written to {args.json}")
    if args.chrome:
        import json

        Path(args.chrome).write_text(
            json.dumps(tracer.to_chrome_trace(), indent=2) + "\n"
        )
        print(f"Chrome trace written to {args.chrome}")
    if args.manifest:
        write_manifest(
            Path(args.manifest),
            obs,
            extra={"command": "trace", "scale": args.scale, "seed": args.seed},
        )
        print(f"run manifest written to {args.manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        choices=("quick", "bench", "full"),
        default="quick",
        help="experiment scale (default: quick)",
    )
    common.add_argument("--seed", type=int, default=2007)
    common.add_argument(
        "--windows",
        type=int,
        default=60,
        help="HPM sampling windows (characterize)",
    )
    common.add_argument(
        "--config",
        metavar="FILE",
        help="load the experiment config from a JSON manifest "
        "(overrides --scale/--seed)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Characterizing a Complex J2EE Workload' "
            "(ISPASS 2007)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="full study + report", parents=[common]
    )
    characterize.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="N>1 runs the correlation campaign's per-group variant in "
        "N worker processes (byte-identical for any N>1; default 1 "
        "keeps the classic shared-core campaign)",
    )
    characterize.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="run under an observability session; write the span trace "
        "here and a run manifest next to it",
    )
    characterize.set_defaults(handler=_with_tracing(cmd_characterize))
    figure = sub.add_parser(
        "figure", help="regenerate one figure", parents=[common]
    )
    figure.add_argument("number", type=int)
    figure.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="N>1 runs figure 10's per-group campaign variant in N "
        "worker processes (byte-identical for any N>1; default 1 keeps "
        "the classic shared-core campaign)",
    )
    figure.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="run under an observability session; write the span trace "
        "here and a run manifest next to it",
    )
    figure.set_defaults(handler=_with_tracing(cmd_figure))
    sub.add_parser(
        "tables", help="regenerate the in-text tables", parents=[common]
    ).set_defaults(handler=cmd_tables)
    sub.add_parser(
        "whatif", help="enhancement estimates vs simulation", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_whatif"))
    objprof_p = sub.add_parser(
        "objprof",
        help="object-centric heap profile (top inefficient objects)",
        parents=[common],
    )
    objprof_p.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="sites to show in the inefficiency ranking (default 5)",
    )
    objprof_p.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the full site profile + ranking as JSON",
    )
    objprof_p.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the what-if re-simulations (estimates only)",
    )
    objprof_p.set_defaults(handler=cmd_objprof)
    sub.add_parser(
        "scaling", help="processor-scaling study", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_scaling"))
    sub.add_parser(
        "tuning", help="the Section 3.3 tuning walk", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_tuning"))
    sub.add_parser(
        "cluster", help="single server vs blade cluster", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_cluster"))
    sub.add_parser(
        "resilience",
        help="fault injection, retries and graceful degradation",
        parents=[common],
    ).set_defaults(handler=_simple_experiment("exp_resilience"))
    sub.add_parser(
        "warmup", help="the JIT warm-up dynamic", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_warmup"))
    sub.add_parser(
        "heap-sweep", help="GC behavior vs heap size", parents=[common]
    ).set_defaults(handler=_simple_experiment("exp_heap_sweep"))
    sub.add_parser(
        "methodology",
        help="sampling-budget ablation for Figure 10",
        parents=[common],
    ).set_defaults(handler=_simple_experiment("exp_methodology"))
    sub.add_parser(
        "compare", help="jas2004 vs simple benchmarks", parents=[common]
    ).set_defaults(handler=cmd_compare)
    save = sub.add_parser(
        "save-config",
        help="write the selected config as a reproducible JSON manifest",
        parents=[common],
    )
    save.add_argument("output", metavar="FILE")
    save.set_defaults(handler=cmd_save_config)
    everything = sub.add_parser(
        "reproduce-all",
        help="regenerate every figure, table and extension study",
        parents=[common],
    )
    everything.add_argument("--output", metavar="FILE", default=None)
    everything.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (default: 1, serial)",
    )
    everything.add_argument(
        "--only",
        action="append",
        metavar="MODULE",
        default=None,
        help="run only the named catalog module(s); repeat the flag or "
        "comma-separate (e.g. --only fig02_throughput,fig03_gc)",
    )
    everything.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="also write wall-clock / per-experiment / cache-counter "
        "stats as JSON (schema 4: includes per-experiment "
        "attempts/retries/timed_out)",
    )
    everything.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="append-only sweep journal: completed experiments are "
        "logged there (fsync per line) and restored on re-run, so an "
        "interrupted sweep restarts from where it died",
    )
    everything.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-experiment wall-clock timeout for the supervised "
        "pool (jobs > 1); a task over budget is retried with backoff",
    )
    everything.add_argument(
        "--no-timing",
        action="store_true",
        help="render the report without wall-clock/cache/retry lines "
        "(the remainder is a pure function of the config — "
        "byte-comparable across runs)",
    )
    everything.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="run under an observability session; write the span trace "
        "here and a run manifest next to it",
    )
    everything.set_defaults(handler=_with_tracing(cmd_reproduce_all))
    profile = sub.add_parser(
        "profile",
        help="profile the core-model hot paths (cProfile + sampling)",
        parents=[common],
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="report the top N entries in every profile view (default: 15)",
    )
    profile.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the cProfile report as JSON",
    )
    profile.add_argument(
        "--flamegraph",
        metavar="FILE",
        default=None,
        help="also run the sampling profiler over the same windows and "
        "write collapsed stacks (flamegraph folded format) here; prints "
        "the sampled flat profile and span attribution too",
    )
    profile.add_argument(
        "--self-flat",
        action="store_true",
        help="print the sampling flat profile + span attribution without "
        "writing a flamegraph file",
    )
    profile.add_argument(
        "--correlate",
        action="store_true",
        help="also correlate per-window host seconds against simulated "
        "event counts (Figure 10 turned inward)",
    )
    profile.add_argument(
        "--interval",
        type=float,
        default=0.005,
        metavar="S",
        help="sampling interval in seconds for --flamegraph/--self-flat "
        "(default: 0.005)",
    )
    profile.set_defaults(handler=cmd_profile)
    bench = sub.add_parser(
        "bench",
        help="run the best-of-N kernel suite; append to the trajectory",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller per-kernel work (CI smoke); same repetition policy",
    )
    bench.add_argument(
        "--reps",
        type=int,
        default=5,
        metavar="N",
        help="timing repetitions per kernel (best-of-N; minimum 5, "
        "default 5)",
    )
    bench.add_argument(
        "--history",
        metavar="FILE",
        default="BENCH_history.jsonl",
        help="the append-only trajectory file (default: "
        "BENCH_history.jsonl)",
    )
    bench.add_argument(
        "--no-record",
        action="store_true",
        help="run and print the suite without appending to the history",
    )
    bench.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write this run's envelope as a standalone BENCH json",
    )
    bench.add_argument(
        "--kernels",
        metavar="NAMES",
        default=None,
        help="comma-separated kernel subset to run (default: the whole "
        "suite); unknown names list the available kernels",
    )
    bench.set_defaults(handler=cmd_bench)
    perf_diff = sub.add_parser(
        "perf-diff", help="compare two bench-history records"
    )
    perf_diff.add_argument(
        "--history", metavar="FILE", default="BENCH_history.jsonl"
    )
    perf_diff.add_argument(
        "--a",
        type=int,
        default=-2,
        metavar="IDX",
        help="baseline record index into the history (default: -2)",
    )
    perf_diff.add_argument(
        "--b",
        type=int,
        default=-1,
        metavar="IDX",
        help="comparison record index (default: -1, the latest)",
    )
    perf_diff.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the rendered report here",
    )
    perf_diff.set_defaults(handler=cmd_perf_diff)
    perf_gate = sub.add_parser(
        "perf-gate",
        help="statistically gate the latest bench record (exit 0/1)",
    )
    perf_gate.add_argument(
        "--history", metavar="FILE", default="BENCH_history.jsonl"
    )
    perf_gate.add_argument(
        "--fail-ratio",
        type=float,
        default=None,
        metavar="X",
        help="fail on a significant slowdown at or beyond X (default 1.3)",
    )
    perf_gate.add_argument(
        "--warn-ratio",
        type=float,
        default=None,
        metavar="X",
        help="warn on a significant slowdown at or beyond X (default 1.10)",
    )
    perf_gate.add_argument(
        "--alpha",
        type=float,
        default=None,
        metavar="P",
        help="significance level for the Mann-Whitney test (default 0.05)",
    )
    perf_gate.add_argument(
        "--kind",
        metavar="KIND",
        default=None,
        help="history record kind to gate (default: perf_suite)",
    )
    perf_gate.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the gate verdicts as JSON",
    )
    perf_gate.set_defaults(handler=cmd_perf_gate)
    cache = sub.add_parser(
        "cache",
        help="run-cache maintenance: verify checksums, clear "
        "quarantine, show stats",
    )
    cache.add_argument(
        "action",
        choices=("verify", "gc", "stats"),
        help="verify: checksum every entry (quarantines corrupt ones; "
        "exit 1 while any entry is corrupt or quarantined) | gc: "
        "delete quarantined entries and stray tmp files | stats: "
        "entry/byte counts",
    )
    cache.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: $REPRO_RUN_CACHE_DIR)",
    )
    cache.set_defaults(handler=cmd_cache)
    conform = sub.add_parser(
        "conform",
        help="the paper-conformance gate (golden bands + strict waivers)",
        parents=[common],
    )
    conform.add_argument(
        "--skip-slow",
        action="store_true",
        help="skip the correlation and large-pages campaigns (their "
        "bands, including known-gap waivers 1, 3 and 4, are listed as "
        "skipped rather than judged)",
    )
    conform.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the evaluated bands as JSON",
    )
    conform.set_defaults(handler=cmd_conform)
    trace = sub.add_parser(
        "trace",
        help="run an instrumented sample; print/export spans and metrics",
        parents=[common],
    )
    trace.add_argument(
        "--json", metavar="FILE", default=None, help="write the trace JSON"
    )
    trace.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="write the Chrome/Perfetto traceEvents document",
    )
    trace.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write the run manifest (config keys, provenance, metrics)",
    )
    trace.set_defaults(handler=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
