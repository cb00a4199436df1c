"""End-to-end benchmark of the simulator: three serial, closed-loop workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload characterize --seed 2007 --seconds 20 --trace 0

Every workload call runs in a fresh interpreter (``call.py``), one at a
time, with ``REPRO_*`` variables cleared so the default fused engine
and a fresh run cache are used.  ``--trace 0`` reports the end-to-end
metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); the two times are
rescaled by a fixed reference work timed in the same process (see
:data:`REFERENCE_ROUND_S`).  ``--trace 1``
alternates untraced and traced calls, and reports the per-layer
metrics of :mod:`tracer` plus the tracing overhead.  Every call's
rendered output is hashed; the run is correct only if all digests
agree (and, for ``sweep_replay``, equal the cold pass that filled the
disk tier).  The last stdout line is the result JSON; the line before
it carries quartiles, sample counts and the provenance stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import EXACT_COUNTS, LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALL = HERE / "call.py"

#: Workload -> the call kind it runs (both sweeps run the same call;
#: they differ in the run cache's disk tier).
WORKLOADS = {
    "characterize": "characterize",
    "sweep_sim": "sweep",
    "sweep_replay": "sweep",
}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}
#: Set-up-only processes per run, besides the set-up of every call.
SETUP_PROBES = 5
#: Wall-clock budget of one run; calls stop being started after it.
BUDGET_S = 170.0
#: The host's speed drifts in phases of 10 s to minutes, by up to 1.6x.
#: Each call times rounds of a fixed reference work (``call.py``): 30
#: right after set-up, and one every 0.1 s from a sampler thread while
#: the workload runs.  ``setup_s`` and ``wall_s`` are the measured times
#: scaled by ``REFERENCE_ROUND_S`` over the mean round time next to
#: them: seconds on a host where one round takes ``REFERENCE_ROUND_S``.
REFERENCE_ROUND_S = 0.0025


def rescaled(seconds: float, round_s: float) -> float:
    return seconds * REFERENCE_ROUND_S / round_s


class Harness:
    """Starts workload calls in fresh interpreters and collects results."""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.started = time.monotonic()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # Imports read cached bytecode, as in an installed copy; the
        # untimed first probe writes it, so set-up never times compiling.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        # A fixed string-hash seed removes one source of run-to-run
        # timing variance; the simulator's output does not depend on it.
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, mode: str, kind: str, cache_dir: Optional[Path] = None) -> Dict:
        timeout = max(1.0, self.remaining())
        t0 = time.monotonic()
        argv = [
            sys.executable,
            str(CALL),
            mode,
            kind,
            str(self.seed),
            self.size,
            str(cache_dir) if cache_dir is not None else "-",
            repr(t0),
        ]
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} call exceeded {timeout:.0f}s"}
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, ValueError):
            out = {}
        if proc.returncode != 0 or not out or "error" in out:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            out.setdefault("error", tail[0])
        return out


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def stamp() -> Dict:
    """Host and source provenance; ``dirty`` is None outside a git checkout."""
    describe, dirty = None, None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10,
        )
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            desc = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--tags", "--dirty"],
                capture_output=True, text=True, timeout=10,
            )
            if desc.returncode == 0:
                describe = desc.stdout.strip()
                dirty = describe.endswith("-dirty")
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_describe": describe,
        "dirty": dirty,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path) -> Dict:
    """Run one set of calls; returns the result plus its detail record."""
    kind = WORKLOADS[workload]
    h = Harness(seed, size)
    errors: List[str] = []
    reference = None
    replay_dir = work / "replay"

    def cache_dir(index: int) -> Optional[Path]:
        if workload == "sweep_sim":
            return work / f"sim-{index}"
        if workload == "sweep_replay":
            return replay_dir
        return None

    def call(mode: str, index: int) -> Dict:
        out = h.child(mode, kind, cache_dir(index))
        if workload == "sweep_sim":
            shutil.rmtree(work / f"sim-{index}", ignore_errors=True)
        if "error" in out:
            errors.append(out["error"])
        return out

    # Untimed: byte-compiles the sources and warms the page cache.
    h.child("probe", kind)
    if workload == "sweep_replay":
        # One cold pass fills the disk tier; it is a sweep_sim call, so
        # every replay must reproduce its digest exactly.
        fill = h.child("call", kind, replay_dir)
        if "error" in fill:
            errors.append(fill["error"])
        reference = fill.get("digest")
    probes: List[Dict] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = h.child("probe", kind)
            if "error" in probe:
                errors.append(probe["error"])
            else:
                probes.append(probe)

    # A traced run alternates untraced and traced calls, so that the
    # tracing overhead compares calls made under the same host load.
    plain: List[Dict] = []
    traced: List[Dict] = []
    deadline = time.monotonic() + seconds
    while not errors and h.remaining() > 0:
        paired = not trace or len(traced) == len(plain)
        if plain and paired and time.monotonic() >= deadline:
            break
        index = len(plain) + len(traced)
        if paired:
            plain.append(call("call", index))
        else:
            traced.append(call("traced", index))

    ok_plain = [c for c in plain if "error" not in c]
    ok_traced = [c for c in traced if "error" not in c]
    digests = {c["digest"] for c in ok_plain + ok_traced}
    if reference is not None:
        digests.add(reference)
    counts = {json.dumps(c["counts"], sort_keys=True) for c in ok_plain}
    mismatches = []
    if ok_plain:
        for c in ok_traced:
            for key, value in ok_plain[0]["counts"].items():
                if c["layers"].get(key) != value:
                    mismatches.append(f"traced {key}={c['layers'].get(key)} != untraced {value}")
        exact = {json.dumps({k: c["layers"][k] for k in EXACT_COUNTS}) for c in ok_traced}
        if len(exact) > 1:
            mismatches.append("exact counts differ between traced calls")
    correct = not errors and len(digests) == 1 and len(counts) <= 1 and not mismatches

    attempted = sum(c.get("attempted", 1) for c in plain + traced)
    failed = sum(c.get("failed", 0) if "error" not in c else 1 for c in plain + traced)
    detail: Dict = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "stamp": stamp(),
        "digest": sorted(digests),
        "counts": ok_plain[0]["counts"] if ok_plain else None,
        "errors": errors,
        "mismatches": mismatches,
    }
    metrics: Dict[str, Dict] = {}
    if ok_plain and not trace:
        setups = probes + ok_plain
        series = {
            "wall_s": [rescaled(c["wall_s"], c["call_round_s"]) for c in ok_plain],
            "setup_s": [rescaled(c["setup_s"], c["setup_round_s"]) for c in setups],
            "peak_rss_mb": [c["peak_rss_mb"] for c in ok_plain],
        }
        for name, values in series.items():
            detail[name] = quartiles(values)
            metrics[name] = {"value": detail[name]["median"], "unit": E2E_UNITS[name]}
        # The measured times behind the rescaled ones.
        detail["measured"] = {
            "wall_s": quartiles([c["wall_s"] for c in ok_plain]),
            "setup_s": quartiles([c["setup_s"] for c in setups]),
            "setup_round_s": quartiles([c["setup_round_s"] for c in setups]),
            "call_round_s": quartiles([c["call_round_s"] for c in ok_plain]),
        }
    if ok_plain and ok_traced:
        traced_wall = statistics.median(c["wall_s"] for c in ok_traced)
        # Exact counts agree across traced calls (checked above); the
        # timings are medians.
        layers = {
            name: ok_traced[0]["layers"][name]
            if name in EXACT_COUNTS
            else statistics.median(c["layers"][name] for c in ok_traced)
            for name in LAYER_UNITS
        }
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(
            c["wall_s"] for c in ok_plain
        )
        units = {**LAYER_UNITS, **TRACE_UNITS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        detail["traced_calls"] = len(ok_traced)
    correct = correct and bool(metrics)
    return {
        "result": {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".e2ebench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = out["detail"]
    if detail["stamp"]["dirty"]:
        print("e2ebench: WARNING: measured from a dirty tree", file=sys.stderr)
    for error in detail["errors"] + detail["mismatches"]:
        print(f"e2ebench: {error}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
