"""Tests for the content-addressed run cache and ``simulate()``."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.config import FaultConfig, FaultEvent
from repro.config_io import FORMAT
from repro.experiments.common import quick_config, simulate
from repro.runcache import (
    CACHE_MAGIC,
    QUARANTINE_DIRNAME,
    CacheIntegrityError,
    RunCache,
    cache_dir_stats,
    config_key,
    decode_entry,
    encode_entry,
    gc_cache_dir,
    verify_cache_dir,
    verify_entry_bytes,
)
from repro.util.rng import RngFactory
from repro.workload.presets import jas2004
from repro.workload.sut import SystemUnderTest


def small_config(seed=5):
    return jas2004(duration_s=120.0, seed=seed)


def previous_verify(blob):
    """The envelope check as it was before it ran in place: the same
    three checks over two copies of the body.  Kept as the oracle of
    :func:`verify_entry_bytes`."""
    if not blob.startswith(CACHE_MAGIC):
        raise CacheIntegrityError(
            "missing or unknown envelope magic (stale format or truncated write)"
        )
    digest, sep, body = blob[len(CACHE_MAGIC):].partition(b"\n")
    if not sep or len(digest) != 64:
        raise CacheIntegrityError("malformed envelope header")
    actual = hashlib.sha256(body).hexdigest().encode("ascii")
    if actual != digest:
        raise CacheIntegrityError("checksum mismatch (bit rot or partial write)")
    return body


def previous_key(config, rng_fork=None):
    """``config_key`` over the previous serializer, ``dataclasses.asdict``."""
    payload = {**dataclasses.asdict(config), "_format": FORMAT, "_rng_fork": rng_fork}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def verdict(check, blob):
    """The body ``check`` returns, as bytes, or the message it raised."""
    try:
        return bytes(check(blob))
    except CacheIntegrityError as exc:
        return str(exc)


def assert_bit_identical(a, b):
    """Two RunResults are the same run, field by field."""
    assert a.timeline.records == b.timeline.records
    assert a.gc_events == b.gc_events
    assert a.responses == b.responses
    assert a.rejected == b.rejected
    assert a.db_hit_ratio == b.db_hit_ratio
    assert a.disk_utilization == b.disk_utilization
    assert a.disk_mean_queue == b.disk_mean_queue
    assert a.final_heap_used == b.final_heap_used
    assert a.final_dark_matter == b.final_dark_matter
    assert a.resilience == b.resilience


class TestConfigKey:
    def test_stable_for_equal_configs(self):
        assert config_key(small_config()) == config_key(small_config())

    def test_seed_changes_key(self):
        assert config_key(small_config(seed=5)) != config_key(small_config(seed=6))

    def test_rng_fork_changes_key(self):
        cfg = small_config()
        assert config_key(cfg) != config_key(cfg, rng_fork="workload")

    def test_any_config_field_changes_key(self):
        cfg = small_config()
        faulted = dataclasses.replace(
            cfg,
            faults=FaultConfig(
                events=(
                    FaultEvent(
                        kind="db_slowdown",
                        start_s=10.0,
                        duration_s=10.0,
                        magnitude=2.0,
                    ),
                )
            ),
        )
        assert config_key(cfg) != config_key(faulted)

    def test_keys_are_pinned(self):
        """Digests computed with the previous serializer.  A changed key
        would orphan every disk cache and sweep journal."""
        cfg = quick_config(2007)
        assert config_key(cfg) == (
            "af596cd6be3ce5c14fbfe2bb45379d3fec3ada121d86cef95baf9a595d99db87"
        )
        assert config_key(cfg, "workload") == (
            "40fae88a063b534a6cb9aa4ad9e8d8c39f15cb7f70d96ca0f7346a32e79b13ab"
        )
        assert config_key(cfg) == previous_key(cfg)
        assert config_key(cfg, "workload") == previous_key(cfg, "workload")


class TestMemoryTier:
    def test_hit_returns_same_object_and_counts(self):
        cache = RunCache()
        cfg = small_config()
        first = cache.get_or_run(cfg)
        second = cache.get_or_run(cfg)
        assert second is first
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_different_forks_are_different_entries(self):
        cache = RunCache()
        cfg = small_config()
        plain = cache.get_or_run(cfg)
        forked = cache.get_or_run(cfg, rng_fork="workload")
        assert cache.stats.misses == 2
        # Different RNG namespaces draw different randomness.
        assert plain.responses != forked.responses


class TestDiskTier:
    def test_shared_across_cache_instances(self, tmp_path):
        cfg = small_config()
        writer = RunCache(disk_dir=tmp_path)
        original = writer.get_or_run(cfg)
        reader = RunCache(disk_dir=tmp_path)
        restored = reader.get_or_run(cfg)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0
        assert_bit_identical(restored, original)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cfg = small_config()
        key = config_key(cfg)
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        cache = RunCache(disk_dir=tmp_path)
        result = cache.get_or_run(cfg)
        assert cache.stats.misses == 1
        assert_bit_identical(result, SystemUnderTest(cfg).run())

    def test_clear_drops_memory_but_keeps_disk(self, tmp_path):
        cache = RunCache(disk_dir=tmp_path)
        cfg = small_config()
        cache.get_or_run(cfg)
        cache.clear()
        assert len(cache) == 0
        cache.get_or_run(cfg)
        assert cache.stats.disk_hits == 1


class TestDeterminism:
    """The satellite guarantee: caching never changes a run."""

    def test_cached_equals_uncached(self):
        cfg = small_config()
        cached = RunCache().get_or_run(cfg)
        fresh = SystemUnderTest(cfg).run()
        assert_bit_identical(cached, fresh)

    def test_rng_fork_matches_inline_fork(self):
        """The cache rebuilds exactly the factory the characterization
        pipeline used to construct inline."""
        cfg = small_config()
        cached = RunCache().get_or_run(cfg, rng_fork="workload")
        inline = SystemUnderTest(cfg, RngFactory(cfg.seed).fork("workload")).run()
        assert_bit_identical(cached, inline)

    def test_simulate_uses_given_cache(self):
        cache = RunCache()
        cfg = small_config()
        a = simulate(cfg, cache=cache)
        b = simulate(cfg, cache=cache)
        assert a is b
        assert cache.stats.hits == 1


class TestEnvelope:
    def test_round_trip(self):
        result = SystemUnderTest(small_config()).run()
        blob = encode_entry(result)
        assert blob.startswith(CACHE_MAGIC)
        restored = decode_entry(blob)
        assert_bit_identical(restored, result)

    def test_missing_magic_rejected(self):
        with pytest.raises(CacheIntegrityError):
            verify_entry_bytes(pickle.dumps({"raw": "legacy entry"}))

    def test_truncated_header_rejected(self):
        with pytest.raises(CacheIntegrityError):
            verify_entry_bytes(CACHE_MAGIC + b"deadbeef\n" + b"body")

    def test_checksum_mismatch_rejected(self):
        blob = bytearray(encode_entry(SystemUnderTest(small_config()).run()))
        blob[-1] ^= 0x01
        with pytest.raises(CacheIntegrityError):
            verify_entry_bytes(bytes(blob))

    def test_empty_blob_rejected(self):
        with pytest.raises(CacheIntegrityError):
            verify_entry_bytes(b"")

    def test_body_is_a_view_of_the_entry_bytes(self):
        result = SystemUnderTest(small_config()).run()
        blob = encode_entry(result)
        body = verify_entry_bytes(blob)
        assert isinstance(body, memoryview)
        assert body.obj is blob
        assert body.tobytes() == previous_verify(blob)
        assert_bit_identical(pickle.loads(body), result)
        assert_bit_identical(decode_entry(blob), result)

    @pytest.mark.parametrize(
        "header",
        [
            b"a" * 63 + b"\n",  # newline at offset 63
            b"a" * 65 + b"\n",  # newline at offset 65
            b"a" * 10 + b"\n" + b"a" * 53 + b"\n",  # an early newline, then 64
            b"a" * 200,  # no newline at all
            b"",
        ],
    )
    def test_newline_off_offset_64_is_malformed(self, header):
        with pytest.raises(CacheIntegrityError, match="malformed envelope header"):
            verify_entry_bytes(CACHE_MAGIC + header + b"body")

    def test_every_bit_flip_and_truncation_matches_the_previous_check(self):
        """Same body or same message as the two-copy check, for a flip
        of every header byte and many body bytes, and for a cut at
        every header length and many body lengths."""
        blob = encode_entry({"stand-in": "body", "values": list(range(40))})
        header = len(CACHE_MAGIC) + 65
        positions = list(range(header + 8)) + list(range(header, len(blob), 7))
        variants = [blob, blob + b"trailing"]
        for i in positions:
            flipped = bytearray(blob)
            flipped[i] ^= 0x01
            variants.append(bytes(flipped))
        variants += [blob[:n] for n in positions + [len(blob) - 1]]
        for variant in variants:
            assert verdict(verify_entry_bytes, variant) == verdict(
                previous_verify, variant
            )


class TestSelfHealing:
    def test_bit_flip_quarantined_and_recomputed(self, tmp_path):
        cfg = small_config()
        writer = RunCache(disk_dir=tmp_path)
        original = writer.get_or_run(cfg)
        entry = tmp_path / f"{config_key(cfg)}.pkl"
        blob = bytearray(entry.read_bytes())
        blob[len(blob) * 3 // 4] ^= 0x40
        entry.write_bytes(bytes(blob))

        reader = RunCache(disk_dir=tmp_path)
        healed = reader.get_or_run(cfg)
        assert reader.stats.quarantined == 1
        assert reader.stats.disk_hits == 0
        assert reader.stats.misses == 1
        assert_bit_identical(healed, original)
        # The bad bytes were parked, and the recompute re-stored a
        # valid entry in place.
        assert (tmp_path / QUARANTINE_DIRNAME / entry.name).exists()
        verify_entry_bytes(entry.read_bytes())

    def test_legacy_raw_pickle_quarantined_as_schema_drift(self, tmp_path):
        cfg = small_config()
        key = config_key(cfg)
        result = SystemUnderTest(cfg).run()
        # A pre-envelope cache entry: a bare pickle, no magic/checksum.
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps(result))
        cache = RunCache(disk_dir=tmp_path)
        cache.get_or_run(cfg)
        assert cache.stats.quarantined == 1
        assert (tmp_path / QUARANTINE_DIRNAME / f"{key}.pkl").exists()

    def test_previous_format_quarantined_not_unpickled(self, tmp_path, monkeypatch):
        cfg = small_config()
        key = config_key(cfg)
        result = SystemUnderTest(cfg).run()
        # A sound entry of the previous body format: valid envelope and
        # checksum, only the magic's version suffix differs.
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        entry = tmp_path / f"{key}.pkl"
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        entry.write_bytes(b"repro-runcache/3\n" + digest + b"\n" + body)
        unpickled = []
        real_loads = pickle.loads
        monkeypatch.setattr(
            pickle, "loads", lambda data: unpickled.append(data) or real_loads(data)
        )

        cache = RunCache(disk_dir=tmp_path)
        healed = cache.get_or_run(cfg)
        assert unpickled == []
        assert cache.stats.quarantined == 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.misses == 1
        assert_bit_identical(healed, result)
        assert (tmp_path / QUARANTINE_DIRNAME / entry.name).exists()
        # The recompute re-stored the entry under the current magic.
        assert entry.read_bytes().startswith(CACHE_MAGIC)
        verify_entry_bytes(entry.read_bytes())

    def test_entry_in_the_previous_layout_replays(self, tmp_path):
        """An entry written before the check ran in place (its key and
        its envelope built as the previous code built them) is a disk
        hit, not a quarantine."""
        cfg = small_config()
        result = SystemUnderTest(cfg).run()
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        entry = tmp_path / f"{previous_key(cfg)}.pkl"
        entry.write_bytes(CACHE_MAGIC + digest + b"\n" + body)
        cache = RunCache(disk_dir=tmp_path)
        replayed = cache.get_or_run(cfg)
        assert cache.stats.quarantined == 0
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 0
        assert_bit_identical(replayed, result)
        assert not (tmp_path / QUARANTINE_DIRNAME).exists()

    def test_unwritable_disk_dir_fails_soft(self, tmp_path):
        # Point disk_dir *under a file* so mkdir/replace must fail —
        # works even when the test runs as root (chmod 0 would not).
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        cache = RunCache(disk_dir=blocker / "cache")
        cfg = small_config()
        result = cache.get_or_run(cfg)
        assert result is not None
        assert cache.stats.write_errors == 1
        assert not cache._disk_writable
        # Later stores skip the dead tier silently (no new errors).
        cache.get_or_run(small_config(seed=6))
        assert cache.stats.write_errors == 1
        # Memory tier still serves.
        assert cache.get_or_run(cfg) is result
        assert cache.stats.hits == 1

    def test_stats_snapshot_tracks_integrity_counters(self, tmp_path):
        cfg = small_config()
        RunCache(disk_dir=tmp_path).get_or_run(cfg)
        entry = tmp_path / f"{config_key(cfg)}.pkl"
        entry.write_bytes(b"garbage")
        cache = RunCache(disk_dir=tmp_path)
        before = cache.stats.snapshot()
        cache.get_or_run(cfg)
        delta = cache.stats.since(before)
        assert delta.quarantined == 1
        assert delta.misses == 1


class TestCacheDirMaintenance:
    def _populate(self, tmp_path, n=2):
        for seed in range(n):
            RunCache(disk_dir=tmp_path).get_or_run(small_config(seed=seed))

    def test_verify_clean_dir(self, tmp_path):
        self._populate(tmp_path)
        report = verify_cache_dir(tmp_path)
        assert report.passed
        assert report.entries_ok == 2
        assert report.bytes_ok > 0
        assert "CLEAN" in "\n".join(report.render_lines())

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        self._populate(tmp_path)
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        victim.write_bytes(bytes(blob))

        report = verify_cache_dir(tmp_path)
        assert not report.passed
        assert report.corrupt == [victim.name]
        assert report.entries_ok == 1
        assert not victim.exists()
        # A second scan finds the live entries clean but still reports
        # the quarantine backlog: dirty until gc.
        again = verify_cache_dir(tmp_path)
        assert again.corrupt == []
        assert again.quarantined == [victim.name]
        assert not again.passed

    def test_verify_matches_the_previous_check(self, tmp_path):
        """Clean, bit-flipped and truncated entries get the outcomes the
        two-copy check gives them."""
        self._populate(tmp_path, n=1)
        clean = sorted(tmp_path.glob("*.pkl"))[0].read_bytes()
        header = len(CACHE_MAGIC) + 65
        variants = {"clean": clean, "trailing": clean + b"\0"}
        for at in (0, len(CACHE_MAGIC) + 3, header - 1, header, len(clean) - 1):
            flipped = bytearray(clean)
            flipped[at] ^= 0x10
            variants[f"flip{at}"] = bytes(flipped)
        for at in (0, 5, len(CACHE_MAGIC), header - 1, header, len(clean) // 2):
            variants[f"cut{at}"] = clean[:at]
        for name, blob in variants.items():
            (tmp_path / f"{name}.pkl").write_bytes(blob)
        rejected = []
        for name, blob in sorted(variants.items()):
            try:
                previous_verify(blob)
            except CacheIntegrityError:
                rejected.append(f"{name}.pkl")
        report = verify_cache_dir(tmp_path)
        assert report.corrupt == rejected
        assert report.entries_ok == 1 + len(variants) - len(rejected)
        assert sorted(rejected) == sorted(
            f"{name}.pkl" for name in variants if name != "clean"
        )
        assert report.quarantined == rejected

    def test_gc_clears_quarantine_and_tmp_strays(self, tmp_path):
        self._populate(tmp_path, n=1)
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        victim.write_bytes(b"rot")
        verify_cache_dir(tmp_path)
        (tmp_path / "dead-writer.tmp").write_bytes(b"partial")

        removed = gc_cache_dir(tmp_path)
        assert removed == {"quarantined": 1, "tmp": 1}
        assert verify_cache_dir(tmp_path).passed
        assert not list(tmp_path.glob("*.tmp"))

    def test_stats_counts(self, tmp_path):
        self._populate(tmp_path)
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        victim.write_bytes(b"rot")
        verify_cache_dir(tmp_path)
        (tmp_path / "stray.tmp").write_bytes(b"x")
        stats = cache_dir_stats(tmp_path)
        assert stats["entries"] == 1
        assert stats["quarantined"] == 1
        assert stats["quarantine_bytes"] == 3
        assert stats["tmp_strays"] == 1
        assert stats["bytes"] > 0

    def test_empty_or_missing_dir(self, tmp_path):
        assert verify_cache_dir(tmp_path / "nope").passed
        assert gc_cache_dir(tmp_path / "nope") == {"quarantined": 0, "tmp": 0}
        assert cache_dir_stats(tmp_path / "nope")["entries"] == 0
