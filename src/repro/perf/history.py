"""The append-only bench-history trajectory.

``BENCH_*.json`` files overwrite in place — fine as "the numbers for
this revision", useless as a *trajectory*.  This module keeps one
JSONL file (default ``BENCH_history.jsonl`` at the repo root) where
every ``repro bench`` run appends one schema-2 envelope
(:mod:`repro.benchio`): results plus host fingerprint, ``git
describe``, timestamp and the repetition spread.  Append-only means
the perf history of the reproduction survives across PRs the same way
the paper's measurement campaigns accumulated across runs — and the
regression gate (:mod:`repro.perf.gate`) always has a baseline to
compare against.

Records from different hosts coexist in one file; readers that compare
records (``perf-diff``, ``perf-gate``) match on the host fingerprint
so a laptop number is never judged against a CI-runner number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.benchio import bench_payload, read_bench_payload

#: Default trajectory file name (created in the working directory).
DEFAULT_HISTORY = "BENCH_history.jsonl"


def append_record(
    path: Union[str, Path],
    results: Dict[str, object],
    kind: str,
    repetitions: int,
    spread: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Wrap ``results`` in the envelope and append one JSONL line.

    Returns the record as written.  The file is created on first
    append; existing content is never rewritten.
    """
    record = bench_payload(results, kind, repetitions=repetitions, spread=spread)
    target = Path(path)
    with target.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def read_history(
    path: Union[str, Path], kind: Optional[str] = None
) -> List[Dict[str, object]]:
    """All records of the trajectory, oldest first, schema-checked.

    Missing file means an empty history (a fresh checkout before the
    first ``repro bench``), not an error.  Blank lines are tolerated;
    a corrupt line raises with its line number, because silently
    skipping history would let the gate compare the wrong points.
    """
    target = Path(path)
    if not target.exists():
        return []
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(target.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{target}:{lineno}: corrupt history line: {exc}")
        records.append(read_bench_payload(doc))
    if kind is not None:
        records = [r for r in records if r.get("kind") == kind]
    return records


def is_dirty_record(record: Dict[str, object]) -> bool:
    """True when the record was measured in a dirty working tree.

    ``git describe --dirty`` appends ``-dirty`` when tracked files had
    uncommitted changes — the measured code is not any commit, so such
    an envelope is fine as a local data point but must never serve as
    the baseline other measurements are judged against.
    """
    describe = str(record.get("git_describe") or "")
    return describe.endswith("-dirty")


def latest_pair(
    records: List[Dict[str, object]],
    same_host: bool = True,
    skip_dirty: bool = False,
) -> Optional[tuple]:
    """``(baseline, latest)`` for a gate/diff comparison, or None.

    The latest record is the measurement under judgment; the baseline
    is the most recent *earlier* record — restricted to the same host
    fingerprint when ``same_host`` (the default), because wall-clock
    from two machines is not one distribution.  ``skip_dirty``
    additionally refuses to promote a dirty-working-tree envelope
    (:func:`is_dirty_record`) to baseline.  Returns None when no
    valid pair exists (fewer than two records, or no acceptable
    predecessor).
    """
    if len(records) < 2:
        return None
    latest = records[-1]
    for candidate in reversed(records[:-1]):
        if skip_dirty and is_dirty_record(candidate):
            continue
        if not same_host or candidate.get("host") == latest.get("host"):
            return (candidate, latest)
    return None


def describe_record(record: Dict[str, object]) -> str:
    """One-line identity of a record for reports and error messages."""
    host = record.get("host") or {}
    return (
        f"{record.get('git_describe', 'unknown')} "
        f"@ {record.get('recorded_at') or 'undated'} "
        f"({host.get('platform', '?')}/{host.get('machine', '?')} "
        f"py{host.get('python', '?')})"
    )
