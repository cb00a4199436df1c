"""Content-addressed cache of finished simulation runs.

A :class:`~repro.workload.sut.RunResult` is fully determined by its
:class:`~repro.config.ExperimentConfig` — the seed is part of the
config — plus the name of the RNG namespace the SUT was started from.
That makes runs *content-addressable*: the cache key is the SHA-256 of
the canonical JSON serialization (via :mod:`repro.config_io`, the same
round-trip-tested encoding the manifest files use) together with the
RNG fork label.  Experiments that revisit a configuration — six of the
21 ``reproduce-all`` catalog entries re-simulate the untouched
baseline — get the finished run back instead of paying for it again.

Two tiers:

* **memory** — a plain dict, always on.  Hits return the *same*
  ``RunResult`` object; experiments treat results as read-only, the
  sharing discipline the session-scoped test fixtures already rely on.
* **disk** — optional.  Results are pickled under ``<dir>/<key>.pkl``
  so runs are shared across processes (the parallel ``reproduce-all``
  workers) and across invocations.

The disk tier is **self-healing**:

* every entry is written under a checksummed envelope
  (:data:`CACHE_MAGIC` + SHA-256 of the pickled body) through a
  ``tempfile.NamedTemporaryFile`` in the target directory followed by
  :func:`os.replace`, so concurrent workers never observe a partial
  file and a crash mid-write leaves only a stray ``*.tmp``;
* every read verifies the checksum.  A corrupted, truncated or
  stale-format entry is *quarantined* (moved to
  ``<dir>/quarantine/``) and treated as a miss — the run is simply
  recomputed, never crashed on.  The magic's suffix versions the body:
  ``repro-runcache/3`` is the columnar ``RunResult`` (typed arrays for
  the tick timeline and the response log), so an entry written under
  ``/2`` is rejected by its magic before anything is unpickled into
  classes whose layout has changed;
* an unwritable cache directory degrades the cache to the memory tier
  (logged once, counted) instead of raising mid-sweep.

:func:`verify_cache_dir`, :func:`gc_cache_dir` and
:func:`cache_dir_stats` back the ``repro cache verify|gc|stats`` CLI;
integrity events are mirrored into the observability
:class:`~repro.obs.metrics.MetricsRegistry` when a session is active
(``runcache.integrity{event=...}``).

The process-wide default cache is what
:func:`repro.experiments.common.simulate` uses.  Setting the
``REPRO_RUN_CACHE_DIR`` environment variable gives the default cache a
disk tier; a locally constructed :class:`RunCache` gives full
isolation when a caller needs it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.config import ExperimentConfig
from repro.config_io import config_to_dict
from repro.obs import objprof as _objprof
from repro.obs import runtime as _obs
from repro.obs.manifest import SOURCE_DISK, SOURCE_MEMORY, SOURCE_SIMULATED
from repro.util.rng import RngFactory
from repro.workload.sut import RunResult, SystemUnderTest

log = logging.getLogger("repro.runcache")

#: Envelope magic for disk-tier entries; bump the suffix on
#: incompatible change (older entries are quarantined as schema drift).
CACHE_MAGIC = b"repro-runcache/3\n"

#: Where quarantined (corrupt / stale-format) entries are parked,
#: relative to the cache directory.
QUARANTINE_DIRNAME = "quarantine"


class CacheIntegrityError(Exception):
    """A disk-tier entry failed its envelope or checksum check."""


def config_key(config: ExperimentConfig, rng_fork: Optional[str] = None) -> str:
    """The content address of the run ``config`` would produce.

    ``rng_fork`` names the RNG namespace the SUT is seeded from (the
    characterization pipeline runs its workload under a ``"workload"``
    fork so the CPU model's streams stay independent); two runs of the
    same config under different namespaces draw different randomness
    and therefore key differently.
    """
    payload = config_to_dict(config)
    payload["_rng_fork"] = rng_fork
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Disk-entry envelope
# ---------------------------------------------------------------------------


def encode_entry(result: RunResult) -> bytes:
    """Envelope a result: magic, SHA-256 of the body, then the body."""
    body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    return CACHE_MAGIC + digest + b"\n" + body


def verify_entry_bytes(blob: bytes) -> memoryview:
    """Check the envelope and return the verified body.

    The body is a ``memoryview`` into ``blob``: the checksum is taken
    over the file bytes in place, and nothing is copied.  Raises
    :class:`CacheIntegrityError` on a missing/unknown magic (schema
    drift or truncation), a malformed header (the first newline after
    the magic must end a 64-character digest), or a checksum mismatch
    — without unpickling anything.
    """
    if not blob.startswith(CACHE_MAGIC):
        raise CacheIntegrityError(
            "missing or unknown envelope magic (stale format or truncated write)"
        )
    start = len(CACHE_MAGIC)
    end = start + 64
    if blob[end : end + 1] != b"\n" or blob.find(b"\n", start, end) != -1:
        raise CacheIntegrityError("malformed envelope header")
    body = memoryview(blob)[end + 1 :]
    actual = hashlib.sha256(body).hexdigest().encode("ascii")
    if actual != blob[start:end]:
        raise CacheIntegrityError("checksum mismatch (bit rot or partial write)")
    return body


def decode_entry(blob: bytes) -> RunResult:
    """Verify and unpickle one disk-tier entry."""
    body = verify_entry_bytes(blob)
    try:
        return pickle.loads(body)
    except Exception as exc:  # checksum passed but the classes drifted
        raise CacheIntegrityError(f"undecodable body: {exc!r}") from exc


@dataclass
class CacheStats:
    """Lookup counters; ``hits`` is the in-memory tier."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    #: Disk entries that failed verification and were quarantined.
    quarantined: int = 0
    #: Disk writes that failed (the tier then degrades to memory-only).
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.disk_hits, self.misses, self.quarantined, self.write_errors
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``earlier`` was snapshotted."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
            misses=self.misses - earlier.misses,
            quarantined=self.quarantined - earlier.quarantined,
            write_errors=self.write_errors - earlier.write_errors,
        )


class RunCache:
    """Memoizes ``SystemUnderTest(config).run()`` by config content."""

    def __init__(self, disk_dir: Optional[Union[str, Path]] = None):
        self._memory: Dict[str, RunResult] = {}
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        #: Cleared after the first failed write: the disk tier fails
        #: soft to memory-only rather than aborting a sweep.
        self._disk_writable = True
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        self._memory.clear()

    def get_or_run(
        self, config: ExperimentConfig, rng_fork: Optional[str] = None
    ) -> RunResult:
        """Return the run for ``config``, simulating it on first use."""
        key = config_key(config, rng_fork)
        if _objprof._ACTIVE is not None:
            # Object profiling needs the SUT to genuinely execute so
            # the heap registers a site ledger; a cache replay (or a
            # stored result poisoning later unprofiled lookups) would
            # defeat it.  Bypass both tiers while a session is active.
            self.stats.misses += 1
            factory = RngFactory(config.seed)
            if rng_fork is not None:
                factory = factory.fork(rng_fork)
            result = SystemUnderTest(config, factory).run()
            self._record(key, config, rng_fork, SOURCE_SIMULATED)
            return result
        cached = self._memory.get(key)
        if cached is not None:
            self.stats.hits += 1
            self._record(key, config, rng_fork, SOURCE_MEMORY)
            return cached
        result = self._load_disk(key)
        if result is not None:
            self.stats.disk_hits += 1
            self._memory[key] = result
            self._record(key, config, rng_fork, SOURCE_DISK)
            return result
        self.stats.misses += 1
        factory = RngFactory(config.seed)
        if rng_fork is not None:
            factory = factory.fork(rng_fork)
        result = SystemUnderTest(config, factory).run()
        self._memory[key] = result
        self._store_disk(key, result)
        self._record(key, config, rng_fork, SOURCE_SIMULATED)
        return result

    @staticmethod
    def _record(
        key: str,
        config: ExperimentConfig,
        rng_fork: Optional[str],
        source: str,
    ) -> None:
        """Stamp this lookup into the active observability session.

        Makes every cache hit auditable: the run manifest shows which
        results were simulated and which were served from a tier.
        """
        obs = _obs._ACTIVE
        if obs is None:
            return
        obs.record_run(key, config.seed, rng_fork, source)
        obs.metrics.counter("runcache.lookups", {"source": source}).inc()

    @staticmethod
    def _record_integrity(event: str) -> None:
        obs = _obs._ACTIVE
        if obs is None:
            return
        obs.metrics.counter("runcache.integrity", {"event": event}).inc()

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        return self.disk_dir / f"{key}.pkl" if self.disk_dir is not None else None

    def _load_disk(self, key: str) -> Optional[RunResult]:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            blob = path.read_bytes()
        except OSError:  # a missing entry (a miss) or an unreadable one
            return None
        try:
            result = decode_entry(blob)
        except CacheIntegrityError as exc:
            self.stats.quarantined += 1
            self._record_integrity("quarantined")
            parked = quarantine_entry(path)
            log.warning(
                "run-cache entry %s failed verification (%s); %s — recomputing",
                path.name,
                exc,
                f"quarantined to {parked}" if parked else "dropped",
            )
            return None
        self._record_integrity("verified")
        return result

    def _store_disk(self, key: str, result: RunResult) -> None:
        path = self._disk_path(key)
        if path is None or not self._disk_writable:
            return
        tmp_name: Optional[str] = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # NamedTemporaryFile in the *target* directory keeps the
            # final os.replace on one filesystem (atomic, never a
            # cross-device copy with a partial-read window).
            with tempfile.NamedTemporaryFile(
                dir=path.parent,
                prefix=f"{path.name}.",
                suffix=".tmp",
                delete=False,
            ) as tmp:
                tmp_name = tmp.name
                tmp.write(encode_entry(result))
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_name, path)
        except OSError as exc:
            # Fail soft: an unwritable REPRO_RUN_CACHE_DIR must not
            # abort a sweep.  Log once, count, memory tier only.
            self.stats.write_errors += 1
            self._record_integrity("write-error")
            if self._disk_writable:
                log.warning(
                    "run-cache dir %s is unwritable (%s); "
                    "continuing with the memory tier only",
                    path.parent,
                    exc,
                )
            self._disk_writable = False
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass


def quarantine_entry(path: Path) -> Optional[Path]:
    """Park a corrupt entry under ``quarantine/``; None if that failed.

    Parking (rather than deleting) keeps the bad bytes available for a
    post-mortem; ``repro cache gc`` clears them.  A quarantine that
    itself fails falls back to unlinking — a corrupt entry must never
    survive in place where it would be re-verified forever.
    """
    qdir = path.parent / QUARANTINE_DIRNAME
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        os.replace(path, target)
        return target
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


# ---------------------------------------------------------------------------
# Cache-directory maintenance (the `repro cache` CLI)
# ---------------------------------------------------------------------------


@dataclass
class CacheVerifyReport:
    """Outcome of :func:`verify_cache_dir`."""

    directory: str
    entries_ok: int = 0
    bytes_ok: int = 0
    #: Entries that failed verification during this scan (and were
    #: quarantined by it).
    corrupt: List[str] = field(default_factory=list)
    #: Entries already sitting in ``quarantine/`` before the scan.
    quarantined: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.corrupt and not self.quarantined

    def render_lines(self) -> List[str]:
        lines = [
            f"run cache {self.directory}",
            f"  verified entries: {self.entries_ok} ({self.bytes_ok} bytes)",
            f"  corrupt (quarantined this scan): {len(self.corrupt)}",
            f"  quarantine backlog: {len(self.quarantined)}",
        ]
        for name in self.corrupt:
            lines.append(f"    corrupt: {name}")
        for name in self.quarantined:
            lines.append(f"    quarantined: {name}")
        lines.append("  verdict: " + ("CLEAN" if self.passed else "DIRTY"))
        return lines


def _entry_paths(disk_dir: Path) -> List[Path]:
    return sorted(p for p in disk_dir.glob("*.pkl") if p.is_file())


def verify_cache_dir(disk_dir: Union[str, Path]) -> CacheVerifyReport:
    """Checksum-verify every entry; quarantine the ones that fail.

    The scan never unpickles anything (envelope + checksum only), so it
    is safe to run against a cache written by any code revision.
    """
    root = Path(disk_dir)
    report = CacheVerifyReport(directory=str(root))
    if not root.is_dir():
        return report
    for path in _entry_paths(root):
        try:
            blob = path.read_bytes()
            verify_entry_bytes(blob)
        except (OSError, CacheIntegrityError):
            report.corrupt.append(path.name)
            quarantine_entry(path)
            continue
        report.entries_ok += 1
        report.bytes_ok += len(blob)
    qdir = root / QUARANTINE_DIRNAME
    if qdir.is_dir():
        report.quarantined = sorted(p.name for p in qdir.iterdir() if p.is_file())
    return report


def gc_cache_dir(disk_dir: Union[str, Path]) -> Dict[str, int]:
    """Clear the quarantine and any stray ``*.tmp`` from dead writers.

    Returns ``{"quarantined": n, "tmp": m}`` removal counts.  Live
    entries are never touched.
    """
    root = Path(disk_dir)
    removed = {"quarantined": 0, "tmp": 0}
    qdir = root / QUARANTINE_DIRNAME
    if qdir.is_dir():
        for path in sorted(qdir.iterdir()):
            try:
                os.unlink(path)
                removed["quarantined"] += 1
            except OSError:
                pass
    if root.is_dir():
        for path in sorted(root.glob("*.tmp")):
            try:
                os.unlink(path)
                removed["tmp"] += 1
            except OSError:
                pass
    return removed


def cache_dir_stats(disk_dir: Union[str, Path]) -> Dict[str, int]:
    """Entry/byte counts for ``repro cache stats`` (no verification)."""
    root = Path(disk_dir)
    stats = {
        "entries": 0,
        "bytes": 0,
        "quarantined": 0,
        "quarantine_bytes": 0,
        "tmp_strays": 0,
    }
    if not root.is_dir():
        return stats
    for path in _entry_paths(root):
        stats["entries"] += 1
        stats["bytes"] += path.stat().st_size
    stats["tmp_strays"] = sum(1 for _ in root.glob("*.tmp"))
    qdir = root / QUARANTINE_DIRNAME
    if qdir.is_dir():
        for path in qdir.iterdir():
            if path.is_file():
                stats["quarantined"] += 1
                stats["quarantine_bytes"] += path.stat().st_size
    return stats


_default_cache: Optional[RunCache] = None


def default_cache() -> RunCache:
    """The process-wide cache (created lazily on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = RunCache(
            disk_dir=os.environ.get("REPRO_RUN_CACHE_DIR") or None
        )
    return _default_cache


def set_default_cache(cache: Optional[RunCache]) -> Optional[RunCache]:
    """Swap the process-wide cache; returns the previous one.

    Passing ``None`` resets to a lazily re-created default (re-reading
    ``REPRO_RUN_CACHE_DIR``).
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous
