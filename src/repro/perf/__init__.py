"""The performance observatory: the paper's method pointed at ourselves.

The paper characterizes a workload by sampling it (tprof flat
profiles, per-window counters) and correlating the samples against
cost (Figure 10).  This package applies the same methodology to the
reproduction *itself*:

* :mod:`repro.perf.sampler` — a low-overhead wall-clock stack sampler
  (tprof-for-the-simulator) whose samples attribute host time to code
  locations and, via the :class:`~repro.obs.trace.Tracer` span clock,
  to observability spans;
* :mod:`repro.perf.flatprofile` — the paper-style *flat profile* of
  the sample log: top functions, cumulative-coverage curve, the
  90/10-rule verdict (:mod:`repro.core.profile_analysis` reused on our
  own samples), and collapsed-stack flamegraph export;
* :mod:`repro.perf.selfcorr` — per-window host seconds correlated
  against simulated event counts
  (:func:`repro.core.correlation.correlate_against`) — Figure 10
  turned inward to name the host-cost drivers;
* :mod:`repro.perf.benchsuite` — the best-of-N kernel benchmark suite
  behind ``repro bench``;
* :mod:`repro.perf.history` — the append-only JSONL bench trajectory
  (one schema-2 envelope per record) and the ``repro perf-diff``
  comparison;
* :mod:`repro.perf.gate` — the statistical perf-regression gate
  (``repro perf-gate``): Mann-Whitney over recorded repetition
  samples, warn on small deltas, fail on significant ones;
* :mod:`repro.perf.cprofile` — the deterministic-callgraph profiler
  (``repro profile``).

Everything here observes; nothing here may perturb the science.  The
sampler runs on its own thread and only *reads* frames, so a run
sampled by it stays bit-identical (asserted by
``tests/obs/test_determinism.py``).
"""

from repro.perf.cprofile import ProfileEntry, ProfileReport, profile_windows
from repro.perf.flatprofile import FlatEntry, FlatProfile, write_collapsed_stacks
from repro.perf.gate import GateReport, KernelVerdict, evaluate_gate
from repro.perf.history import append_record, read_history
from repro.perf.sampler import (
    SampleLog,
    SelfProfile,
    SpanAttribution,
    StackSampler,
    attribute_to_spans,
    self_profile,
)
from repro.perf.selfcorr import HostCostReport, host_cost_correlation

__all__ = [
    "FlatEntry",
    "FlatProfile",
    "GateReport",
    "HostCostReport",
    "KernelVerdict",
    "ProfileEntry",
    "ProfileReport",
    "SampleLog",
    "SelfProfile",
    "SpanAttribution",
    "StackSampler",
    "append_record",
    "attribute_to_spans",
    "evaluate_gate",
    "host_cost_correlation",
    "profile_windows",
    "read_history",
    "self_profile",
    "write_collapsed_stacks",
]
