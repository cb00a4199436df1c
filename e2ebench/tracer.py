"""Per-layer host-time attribution from outside the program.

A :class:`LayerTracer` wraps a fixed list of the simulator's public
functions -- one or more per layer -- and accumulates, per probe, the
call count, the inclusive seconds and the self seconds (inclusive time
minus the time of nested wrapped calls).  Nothing under ``src/`` is
edited and no ``repro.obs`` session is enabled: the wrappers replace
class attributes and module globals, and :meth:`LayerTracer.uninstall`
puts the originals back.

Each function is wrapped at every binding its callers use.  A class
method is replaced on its class (callers look it up at call time).  A
module-level function is replaced in its defining module *and* in every
already-imported ``repro`` module that bound it by name with ``from ...
import``; modules imported later pick up the wrapper from the defining
module.

The hot window kernel is deliberately left alone: the fused kernel in
``SliceRunner.run_until`` only runs when ``SliceRunner._can_fuse()``
sees stock, un-patched collaborators.  Patching any class in
:data:`FORBIDDEN_OWNERS` would silently switch the run to the generic
kernel, so :meth:`LayerTracer.install` refuses to.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (probe name, defining module, qualified name) of every wrapped
#: function.  Two targets may share a probe name; their time is pooled.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("workload.sut.run", "repro.workload.sut", "SystemUnderTest.run"),
    ("workload.appserver.serve", "repro.workload.appserver", "AppServer.serve"),
    ("jvm.gc.collect", "repro.jvm.gc", "MarkSweepCompactCollector.collect"),
    ("bridge.descriptor", "repro.workload.bridge", "WorkloadPhaseSchedule.descriptor_for"),
    ("jvm.methods.registry_build", "repro.jvm.methods", "MethodRegistry.__init__"),
    ("cpu.window", "repro.cpu.core_model", "CoreModel.execute_window"),
    ("hpm.group", "repro.hpm.hpmstat", "HpmStat.sample_group"),
    ("hpm.all", "repro.hpm.hpmstat", "HpmStat.sample_all"),
    ("core.correlation", "repro.core.correlation", "CpiCorrelationStudy.run"),
    ("core.regression", "repro.core.regression", "decompose_cpi"),
    ("core.summary", "repro.core.characterization", "HardwareSummary.from_snapshots"),
    ("workload.metrics.evaluate_run", "repro.workload.metrics", "evaluate_run"),
    ("report.render", "repro.core.report", "render_report"),
    ("report.render", "repro.experiments.reproduce_all", "ReproduceAllResult.render_lines"),
    ("runcache.lookup", "repro.runcache", "RunCache.get_or_run"),
    ("runcache.decode", "repro.runcache", "decode_entry"),
    ("runcache.encode", "repro.runcache", "encode_entry"),
)

#: Classes whose patching makes ``SliceRunner._can_fuse()`` fall back to
#: the generic kernel (or that the fused kernel reaches into directly).
FORBIDDEN_OWNERS = frozenset(
    {
        "SliceRunner",
        "MemorySystem",
        "TranslationUnit",
        "BranchUnit",
        "PipelineAccountant",
        "CounterBank",
        "SetAssociativeCache",
        "StreamPrefetcher",
    }
)


def _ticks(args, result) -> Tuple[str, int]:
    return "ticks", len(result.timeline)


def _instructions(args, result) -> Tuple[str, int]:
    return "instructions", result.instructions


def _bytes_read(args, result) -> Tuple[str, int]:
    return "bytes_read", len(args[0])


def _bytes_written(args, result) -> Tuple[str, int]:
    return "bytes_written", len(result)


#: Exact side counts read from a probe's arguments or return value.
TALLIES: Dict[str, Callable] = {
    "workload.sut.run": _ticks,
    "cpu.window": _instructions,
    "runcache.decode": _bytes_read,
    "runcache.encode": _bytes_written,
}


#: Unit of every metric :meth:`LayerTracer.layer_metrics` returns.
LAYER_UNITS: Dict[str, str] = {
    "workload.sut.runs": "count",
    "workload.sut.run_s": "s",
    "workload.sut.ticks_per_s": "1/s",
    "workload.appserver.serve_s": "s",
    "jvm.gc.collections": "count",
    "jvm.gc.collect_s": "s",
    "bridge.descriptors": "count",
    "bridge.descriptor_s": "s",
    "jvm.methods.registry_build_s": "s",
    "cpu.windows": "count",
    "cpu.window_self_s": "s",
    "cpu.ms_per_window": "ms",
    "cpu.sim_instructions": "count",
    "cpu.sim_kinstr_per_s": "kinstr/s",
    "hpm.group_campaigns": "count",
    "hpm.self_s": "s",
    "core.correlation.self_s": "s",
    "core.regression_s": "s",
    "core.summary_s": "s",
    "workload.metrics.evaluate_run_s": "s",
    "report.render_s": "s",
    "runcache.lookups": "count",
    "runcache.hit_ratio": "ratio",
    "runcache.self_s": "s",
    "runcache.decode_s": "s",
    "runcache.bytes_read": "B",
    "runcache.encode_s": "s",
    "runcache.bytes_written": "B",
    "other.unattributed_s": "s",
}

#: Layer metrics that are exact for a fixed seed: a speed-only change
#: leaves every one of them identical.
EXACT_COUNTS = (
    "workload.sut.runs",
    "jvm.gc.collections",
    "bridge.descriptors",
    "cpu.windows",
    "cpu.sim_instructions",
    "hpm.group_campaigns",
    "runcache.lookups",
    "runcache.bytes_read",
    "runcache.bytes_written",
)


class ProbeStats:
    """Accumulated calls and seconds of one probe."""

    __slots__ = ("calls", "inclusive_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Installs the probes, accumulates their times, restores on exit."""

    def __init__(self) -> None:
        self.stats: Dict[str, ProbeStats] = {
            name: ProbeStats() for name, _, _ in PROBES
        }
        self.tallies: Dict[str, int] = {}
        #: One child-time accumulator per active wrapped call.
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, probe: str, fn: Callable) -> Callable:
        stats = self.stats[probe]
        stack = self._stack
        tallies = self.tallies
        tally = TALLIES.get(probe)
        clock = time.perf_counter

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if tally is not None:
                key, amount = tally(args, result)
                tallies[key] = tallies.get(key, 0) + amount
            return result

        return probed

    def install(self) -> "LayerTracer":
        for probe, module_name, qualname in PROBES:
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, attr = qualname.split(".")
                if owner_name in FORBIDDEN_OWNERS:
                    raise ValueError(f"refusing to patch {qualname}: it disables the fused kernel")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(probe, raw.__func__))
                else:
                    wrapped = self._wrap(probe, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(probe, original)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "") or ""
                if other_name != "repro" and not other_name.startswith("repro."):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, attr, original))
                        setattr(other, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float, hit_ratio: float) -> Dict[str, float]:
        """The per-layer metrics of one traced call of ``wall_s`` seconds.

        ``hit_ratio`` comes from the run cache's own counters (memory
        plus disk hits over lookups), which the harness owns.
        """
        s = self.stats
        t = self.tallies

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        window = s["cpu.window"]
        sut = s["workload.sut.run"]
        instructions = t.get("instructions", 0)
        return {
            "workload.sut.runs": sut.calls,
            "workload.sut.run_s": sut.inclusive_s,
            "workload.sut.ticks_per_s": per(t.get("ticks", 0), sut.inclusive_s),
            "workload.appserver.serve_s": s["workload.appserver.serve"].inclusive_s,
            "jvm.gc.collections": s["jvm.gc.collect"].calls,
            "jvm.gc.collect_s": s["jvm.gc.collect"].inclusive_s,
            "bridge.descriptors": s["bridge.descriptor"].calls,
            "bridge.descriptor_s": s["bridge.descriptor"].inclusive_s,
            "jvm.methods.registry_build_s": s["jvm.methods.registry_build"].inclusive_s,
            "cpu.windows": window.calls,
            "cpu.window_self_s": window.self_s,
            "cpu.ms_per_window": per(1000.0 * window.inclusive_s, window.calls),
            "cpu.sim_instructions": instructions,
            "cpu.sim_kinstr_per_s": per(instructions / 1000.0, window.inclusive_s),
            "hpm.group_campaigns": s["hpm.group"].calls,
            "hpm.self_s": s["hpm.group"].self_s + s["hpm.all"].self_s,
            "core.correlation.self_s": s["core.correlation"].self_s,
            "core.regression_s": s["core.regression"].inclusive_s,
            "core.summary_s": s["core.summary"].inclusive_s,
            "workload.metrics.evaluate_run_s": s["workload.metrics.evaluate_run"].inclusive_s,
            "report.render_s": s["report.render"].inclusive_s,
            "runcache.lookups": s["runcache.lookup"].calls,
            "runcache.hit_ratio": hit_ratio,
            "runcache.self_s": s["runcache.lookup"].self_s,
            "runcache.decode_s": s["runcache.decode"].inclusive_s,
            "runcache.bytes_read": t.get("bytes_read", 0),
            "runcache.encode_s": s["runcache.encode"].inclusive_s,
            "runcache.bytes_written": t.get("bytes_written", 0),
            "other.unattributed_s": wall_s - sum(p.self_s for p in s.values()),
        }
