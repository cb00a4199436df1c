"""One workload call in a fresh interpreter.

``run.py`` starts this script once per call so that every call pays
its own interpreter start, imports and config build (``setup_s``) and
reports its own peak resident memory::

    python3 e2ebench/call.py MODE KIND SEED SIZE CACHE_DIR T0

``MODE`` is ``probe`` (set up, then stop), ``call`` (run the workload)
or ``traced`` (run it under :class:`tracer.LayerTracer`).  ``KIND`` is
``characterize`` or ``sweep``; ``CACHE_DIR`` is the run cache's disk
tier (``-`` for memory only); ``T0`` is the parent's
``time.monotonic()`` just before it started this process, the origin of
``setup_s``.  The result is one JSON line on stdout.

The process pins itself to one CPU and times rounds of a fixed
reference work (:class:`ReferenceWork`) after set-up and, from a
sampler thread, during the call; ``run.py`` rescales the times by them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from typing import List

#: The experiments both sweep workloads run: the SUT-heavy part of the
#: catalog (21 SUT runs on ``quick_config``, almost no windows).
SWEEP_MODULES = (
    "fig02_throughput",
    "fig03_gc",
    "tab_utilization",
    "tab_baselines",
    "exp_tuning",
    "exp_heap_sweep",
    "exp_resilience",
)

#: ``full`` is the benchmark; ``smoke`` is the minimal size the
#: benchmark's own tests run.
SIZES = {
    "full": {"hw_windows": 60, "corr_windows": 60, "sweep": SWEEP_MODULES},
    "smoke": {
        "hw_windows": 10,
        "corr_windows": 3,
        "sweep": ("fig02_throughput", "tab_utilization"),
    },
}

#: Modules imported during set-up, so that import time is part of
#: ``setup_s`` and the tracer sees every by-name binding it must patch.
PRELOAD = {
    "characterize": (
        "repro.core.characterization",
        "repro.core.insights",
        "repro.core.regression",
        "repro.core.report",
    ),
    "sweep": ("repro.experiments.reproduce_all",),
}


#: Work of one reference round, about 3 ms on a 2 GHz Xeon: shorter
#: than the interpreter's 5 ms thread switch interval.
ROUND_ARITHMETIC = 5000
ROUND_PROBES = 3000
#: The buffer the probes read and write, large enough to leave the
#: per-core caches; ``peak_rss_mb`` includes it.
BUFFER_BYTES = 4 << 20
#: Seconds between the rounds the sampler thread times during a call.
SAMPLE_INTERVAL_S = 0.1
#: Rounds timed right after set-up.
SETUP_ROUNDS = 30


class ReferenceWork:
    """A fixed piece of work, not the program, that gauges host speed.

    A round does interpreted integer arithmetic and dict access, then
    scattered reads and writes over a 4 MiB buffer.  It allocates no
    object the cyclic collector tracks, so it never triggers a
    collection of the program's heap.
    """

    def __init__(self):
        self._table = dict.fromkeys(range(256), 1)
        self._buffer = bytearray(BUFFER_BYTES)

    def round(self) -> float:
        """CPU seconds this thread takes for one round.

        Thread CPU time leaves out time spent waiting for the
        interpreter lock, but not a slower host.
        """
        table, buffer, mask = self._table, self._buffer, BUFFER_BYTES - 1
        started = time.thread_time()
        acc = 0
        for i in range(ROUND_ARITHMETIC):
            acc = (acc + table[i & 255] * i) % 1000003
            table[i & 255] = acc & 0xFFFF
        for i in range(ROUND_PROBES):
            acc += buffer[(i * 2654435761 + acc) & mask]
            buffer[(i * 40503) & mask] = i & 255
        return time.thread_time() - started


class SpeedSampler:
    """Times a reference round every ``SAMPLE_INTERVAL_S`` from a thread.

    The host's speed changes in phases that can begin or end during a
    call; rounds spread over the call follow them.  The first round
    starts at once, so even a short call has one.  The rounds cost the
    call about 3% of its time.
    """

    def __init__(self, work: ReferenceWork):
        self.rounds: List[float] = []
        self._work = work
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.rounds.append(self._work.round())
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def set_up(kind: str, seed: int, size: str, cache_dir):
    """Imports, config build and a fresh run cache; returns both."""
    for name in PRELOAD[kind]:
        importlib.import_module(name)
    if kind == "sweep":
        for name in SIZES[size]["sweep"]:
            importlib.import_module(f"repro.experiments.{name}")
    from repro.experiments.common import quick_config
    from repro.runcache import RunCache, set_default_cache

    config = quick_config(seed)
    cache = RunCache(disk_dir=cache_dir)
    set_default_cache(cache)
    return config, cache


def run_characterize(config, size: str):
    """The shared-core characterization campaign plus its report.

    Functions are looked up on their modules at call time so that a
    traced call goes through the tracer's wrappers.
    """
    from repro.core import characterization, report

    params = SIZES[size]
    study = characterization.Characterization(config)
    result = study.run(
        hw_windows=params["hw_windows"],
        correlation_windows_per_group=params["corr_windows"],
    )
    text = report.render_report(result)
    # One operation per call; it fails on an exception or a digest
    # mismatch, both judged by the parent.
    return text, 1, 0, {"cpu.windows": study.core.windows_executed}


def run_sweep(config, size: str):
    """The SUT-heavy catalog subset, rendered without timing lines."""
    from repro.experiments import reproduce_all

    result = reproduce_all.run(config, only=list(SIZES[size]["sweep"]))
    text = "\n".join(result.render_lines(include_timing=False))
    # Operations are the judged paper-vs-measured rows; off-band rows
    # are failures.
    return text, result.rows_total, len(result.rows_off), {}


RUNNERS = {"characterize": run_characterize, "sweep": run_sweep}


def main(argv) -> int:
    mode, kind, seed, size, cache_dir, t0 = argv
    # The two vCPUs of the host change speed independently.  On one CPU
    # the sampler thread runs where the workload runs, so the reference
    # rounds see the speed the workload sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cache_dir = None if cache_dir == "-" else cache_dir
    config, cache = set_up(kind, int(seed), size, cache_dir)
    tracer = None
    if mode == "traced":
        from tracer import LayerTracer

        tracer = LayerTracer().install()
    ready = time.monotonic()
    work = ReferenceWork()
    setup_rounds = [work.round() for _ in range(SETUP_ROUNDS)]
    out = {
        "mode": mode,
        "setup_s": ready - float(t0),
        "setup_round_s": statistics.fmean(setup_rounds),
    }
    if mode != "probe":
        with SpeedSampler(work) as sampler:
            started = time.perf_counter()
            text, attempted, failed, counts = RUNNERS[kind](config, size)
            wall_s = time.perf_counter() - started
        out["call_round_s"] = statistics.fmean(sampler.rounds)
        stats = cache.stats
        counts["runcache.lookups"] = stats.lookups
        counts["workload.sut.runs"] = stats.misses
        out.update(
            wall_s=wall_s,
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            attempted=attempted,
            failed=failed,
            counts=counts,
        )
        if tracer is not None:
            tracer.uninstall()
            hits = stats.hits + stats.disk_hits
            out["layers"] = tracer.layer_metrics(
                wall_s, hits / stats.lookups if stats.lookups else 0.0
            )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception as exc:  # reported to the parent, which counts the failure
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        sys.exit(1)
