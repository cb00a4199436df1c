"""Golden bit-identity lock for the SUT tick loop.

Each case runs a short (120 s virtual) simulation and hashes the
``repr`` of every part of its :class:`~repro.workload.sut.RunResult`.
``repr`` of a float round-trips exactly, so a digest moves on any
change to any float the loop produces — a speed-only change to the
scheduler, the database, the driver or the tick loop must leave every
digest here untouched.  The cases cover the fault-free loop, every
resilience path the single-server SUT has, a workload that issues no
database queries (``poisson`` draws nothing) and one whose query rates
all exceed 30 (``poisson``'s log-space branch).  Each case is checked as
simulated and after a round trip through the run cache's disk-entry
encoding, so the stored form loses nothing either.

After an intentional behaviour change, print the new digests with::

    PYTHONPATH=src python tests/workload/test_sut_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.config import (
    DegradationPolicy,
    DiskConfig,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.runcache import decode_entry, encode_entry
from repro.workload.presets import jas2004, jbb2000_like
from repro.workload.sut import RunResult, SystemUnderTest

RETRY = RetryPolicy(
    enabled=True,
    timeout_web_s=3.0,
    timeout_rmi_s=6.0,
    max_attempts=4,
    backoff_base_s=0.5,
    backoff_cap_s=8.0,
    retry_budget=0.5,
)
BROWNOUT = DegradationPolicy(
    enabled=True, brownout_threshold=0.25, sustain_ticks=5, shed_priority_below=1
)


def _config(faults: FaultConfig = FaultConfig(), ir_scale=1.0, **workload):
    config = jas2004(duration_s=120.0, seed=2007)
    workload.setdefault(
        "injection_rate", int(round(config.workload.injection_rate * ir_scale))
    )
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, **workload),
        faults=faults,
    )


def _event(kind: str, magnitude: float = 1.0, duration_s: float = 15.0):
    return (
        FaultEvent(kind=kind, start_s=50.0, duration_s=duration_s, magnitude=magnitude),
    )


def _query_heavy():
    """jas2004 with every type issuing more than 30 queries on average,
    so each admission takes ``poisson``'s log-space branch."""
    specs = jas2004().workload.transactions
    return _config(
        transactions=tuple(
            dataclasses.replace(spec, db_queries=spec.db_queries + 25.0)
            for spec in specs
        )
    )


CASES = {
    "fault-free": lambda: _config(),
    "crash-retry": lambda: _config(
        FaultConfig(events=_event("tier_crash", duration_s=8.0), retry=RETRY)
    ),
    "overload-brownout": lambda: _config(
        FaultConfig(degradation=BROWNOUT), ir_scale=1.5
    ),
    "db-slowdown": lambda: _config(FaultConfig(events=_event("db_slowdown", 3.0))),
    "disk-degraded": lambda: _config(
        FaultConfig(events=_event("disk_degraded", 120.0))
    ),
    "gc-pressure": lambda: _config(FaultConfig(events=_event("gc_pressure", 700.0))),
    "two-threads-heavy-io": lambda: _config(
        thread_pool=2, buffer_pool_hit=0.30, disk=DiskConfig.hard_disks(2)
    ),
    "no-db-queries": lambda: jbb2000_like(duration_s=120.0, seed=2007),
    "query-heavy": _query_heavy,
}

#: SHA-256 of each case's run, captured before the tick loop was fused;
#: ``no-db-queries`` and ``query-heavy`` were captured before admission,
#: completion and the disk handoff were fused into the loop.  Re-pinned
#: when the resilience stats gained ``open_ops``: with that field left
#: out of their ``repr``, every case hashes to its earlier digest.
GOLDEN = {
    "fault-free": "e9d225ff65aae0cb733d9a243c71a51dd8767378b4c18114139bba5e139cc3f1",
    "crash-retry": "b750defd633ea0b7a42b6bac6d7b550bed560f7f648fded191bc091134d998a3",
    "overload-brownout": "97ee5ef44a421210b63c0682e5bac017127550239e188895249634c3f517addb",
    "db-slowdown": "90869e9da8428ee6d4c45c475564922e788464612cd4cc995642c1d97a533234",
    "disk-degraded": "9ef257e6f3b69ba83bd648600f35e042aaf0efe20e43eddfd94464f52e9b2e91",
    "gc-pressure": "de0d496e991c6176f44c3ee501fab1d72c22fce110ef65ef3f2488f0d910509b",
    "two-threads-heavy-io": "97b9559a7dcb108612f3536c687ed547f89629c3690743efac8763d9e427ccd7",
    "no-db-queries": "ed9ab4386fe506465b3d9a39f232776fb5460bd97a5c7c1e944137b4139d23c8",
    "query-heavy": "ae098c4ecbd0e298042795b5790c22533b92bdd50c429b0e9d1e01e197268ce5",
}


def run_digest(result: RunResult) -> str:
    digest = hashlib.sha256()
    for part in (
        result.timeline.records,
        result.gc_events,
        result.responses,
        result.rejected,
        (
            result.db_hit_ratio,
            result.disk_utilization,
            result.disk_mean_queue,
            result.final_heap_used,
            result.final_dark_matter,
        ),
        result.resilience,
    ):
        digest.update(repr(part).encode())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def golden_run(case: str) -> RunResult:
    """The case's run, simulated once per test session (read-only)."""
    return SystemUnderTest(CASES[case]()).run()


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_is_bit_identical(case):
    assert run_digest(golden_run(case)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_disk_tier_round_trip_is_bit_identical(case):
    result = decode_entry(encode_entry(golden_run(case)))
    assert run_digest(result) == GOLDEN[case]


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{run_digest(SystemUnderTest(CASES[name]()).run())}",')
