"""Run-scoped observability: metrics, tracing and run manifests.

The paper characterizes a live system by sampling counters from
independent tools and correlating them; this package gives the
reproduction the same kind of self-instrumentation:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms with label sets, threaded through the
  workload, JVM, CPU and experiment layers;
* :mod:`repro.obs.trace` — a :class:`Tracer` of phase-scoped spans
  (warmup/steady phases, GC pauses, HPM group campaigns, per-
  experiment wall time) exported as JSON, Chrome-trace, or a
  :class:`~repro.util.timeline.SeriesBundle`;
* :mod:`repro.obs.manifest` — run manifests stamping each simulation
  lookup with its config content key, seed, RNG fork, cache provenance,
  ``git describe`` and the session's metric snapshot;
* :mod:`repro.obs.runtime` — the active-session mechanism.  **All
  instrumentation is inert unless a session is active**, and the
  disabled path is bit-identical to the uninstrumented simulator.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    RunRecord,
    audit_lines,
    build_manifest,
    git_describe,
    host_fingerprint,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_metric_name,
)
from repro.obs.runtime import Observability, active, install, observe
from repro.obs.trace import TRACE_SCHEMA, VIRTUAL, WALL, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "Observability",
    "RunRecord",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "VIRTUAL",
    "WALL",
    "active",
    "audit_lines",
    "build_manifest",
    "git_describe",
    "host_fingerprint",
    "install",
    "observe",
    "render_metric_name",
    "write_manifest",
]
