"""Shared synthetic fixtures for the performance-observatory tests.

The profiler/flat-profile tests run against a hand-built
:class:`~repro.perf.sampler.SampleLog` so every assertion is exact —
no real sampling jitter involved.  The synthetic log models a small
call tree::

    main -> simulate -> run_until      (6 samples, the hot leaf)
    main -> simulate                   (2 samples)
    main -> report                     (2 samples)

so ``run_until`` owns 60% of self time and 90/10-style concentration
questions have known answers.
"""

from __future__ import annotations

import pytest

from repro.perf.sampler import FrameKey, SampleLog, StackSample

MAIN = FrameKey(func="main", file="/repo/src/app.py", line=10)
SIMULATE = FrameKey(func="simulate", file="/repo/src/sim.py", line=40)
RUN_UNTIL = FrameKey(func="run_until", file="/repo/src/stream.py", line=438)
REPORT = FrameKey(func="report", file="/repo/src/report.py", line=5)

HOT_STACK = (MAIN, SIMULATE, RUN_UNTIL)
MID_STACK = (MAIN, SIMULATE)
COLD_STACK = (MAIN, REPORT)


def make_sample_log(order=None) -> SampleLog:
    """The synthetic log; ``order`` permutes sample insertion order."""
    stacks = [HOT_STACK] * 6 + [MID_STACK] * 2 + [COLD_STACK] * 2
    if order is not None:
        stacks = [stacks[i] for i in order]
    samples = [
        StackSample(t=1.0 + 0.01 * i, frames=frames)
        for i, frames in enumerate(stacks)
    ]
    return SampleLog(
        interval_s=0.01, started_s=1.0, stopped_s=1.2, samples=samples
    )


@pytest.fixture
def sample_log() -> SampleLog:
    return make_sample_log()


@pytest.fixture(scope="session")
def quick_suite():
    """One run of the whole quick kernel suite, shared by the test of its
    shape and the test of the envelope `repro bench --json` writes."""
    from repro.perf.benchsuite import run_suite

    return run_suite(quick=True)


@pytest.fixture(autouse=True)
def _clean_git_describe(monkeypatch):
    """Stamp bench envelopes with a clean synthetic revision.

    The observatory tests must not depend on the developer's working
    tree state: a dirty checkout would stamp ``-dirty`` describes,
    and the gate (correctly) refuses to promote those to baseline —
    which would make these tests fail locally mid-development.  Tests
    exercising the dirty-baseline hygiene craft their records
    explicitly.
    """
    monkeypatch.setattr("repro.benchio.git_describe", lambda: "testrev")
