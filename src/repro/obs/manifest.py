"""Run manifests: what exactly produced a result, and from where.

The run cache (:mod:`repro.runcache`) makes simulation results
content-addressed; the manifest makes its *hits auditable*.  Every
``simulate()`` lookup performed while an observability session is
active is recorded as a :class:`RunRecord` — the config's content key,
the seed, the RNG fork label, and whether the result was freshly
simulated or served from the memory/disk tier.  ``build_manifest``
folds the records together with the code identity (``git describe``),
the host fingerprint and the session's metric snapshot into one JSON
document, written next to trace exports by the ``--trace-json`` CLI
flags.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: Manifest document schema version.
MANIFEST_SCHEMA = "repro_run_manifest/1"

#: Where a cached lookup's result came from.
SOURCE_SIMULATED = "simulated"
SOURCE_MEMORY = "memory-cache"
SOURCE_DISK = "disk-cache"


@dataclass(frozen=True)
class RunRecord:
    """One ``simulate()`` lookup: identity plus provenance."""

    config_key: str
    seed: int
    rng_fork: Optional[str]
    source: str


def git_describe(cwd: Optional[Path] = None) -> str:
    """``git describe --always --dirty`` of the code that ran.

    Returns ``"unknown"`` when git (or the repository) is unavailable —
    manifests must never fail a run.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def host_fingerprint() -> Dict[str, str]:
    """The host identity stamped into manifests and bench artifacts.

    Enough to tell two measurement environments apart without leaking
    anything sensitive: interpreter, platform, machine architecture.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def build_manifest(obs, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """The manifest document for one observability session.

    ``obs`` is a :class:`repro.obs.Observability`; ``extra`` merges
    caller-supplied fields (e.g. the CLI's scale/seed arguments).
    """
    doc: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "git": git_describe(),
        "host": host_fingerprint(),
        "runs": [
            {
                "config_key": r.config_key,
                "seed": r.seed,
                "rng_fork": r.rng_fork,
                "source": r.source,
            }
            for r in obs.run_records
        ],
        "metrics": obs.metrics.snapshot(),
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(
    path, obs, extra: Optional[Dict[str, object]] = None
) -> Path:
    """Serialize :func:`build_manifest` to ``path``; returns the path."""
    target = Path(path)
    target.write_text(
        json.dumps(build_manifest(obs, extra), indent=2, sort_keys=True) + "\n"
    )
    return target


def audit_lines(obs) -> List[str]:
    """A human-readable provenance summary of the session's runs."""
    lines = []
    for r in obs.run_records:
        fork = r.rng_fork if r.rng_fork is not None else "-"
        lines.append(
            f"  {r.config_key[:12]}  seed={r.seed}  fork={fork:<12s}  {r.source}"
        )
    return lines
