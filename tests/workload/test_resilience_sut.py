"""End-to-end tests of the fault/resilience hooks in the SUT loop."""

import dataclasses

import pytest

from repro.config import (
    DegradationPolicy,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.experiments.common import quick_config
from repro.experiments.exp_resilience import OVERLOAD
from repro.workload.metrics import evaluate_resilience
from repro.workload.presets import jas2004
from repro.workload.sut import SystemUnderTest


def small_config(seed=5, **fault_kwargs):
    config = jas2004(duration_s=120.0, seed=seed)
    if fault_kwargs:
        config = dataclasses.replace(config, faults=FaultConfig(**fault_kwargs))
    return config


def successes(result):
    return sum(len(per_type) for per_type in result.responses)


#: Retry policy whose backoff ladder outlasts the 10 s outages below.
GENEROUS_RETRY = RetryPolicy(
    enabled=True,
    timeout_web_s=30.0,
    timeout_rmi_s=30.0,
    max_attempts=6,
    backoff_base_s=1.0,
    backoff_factor=3.0,
    backoff_cap_s=15.0,
    jitter=0.5,
    retry_budget=0.5,
)


class TestZeroCost:
    """The subsystem must be invisible unless a fault can actually act."""

    def test_default_fault_config_changes_nothing(self):
        baseline = SystemUnderTest(small_config()).run()
        explicit = SystemUnderTest(
            dataclasses.replace(small_config(), faults=FaultConfig())
        ).run()
        assert explicit.responses == baseline.responses
        assert explicit.timeline.records == baseline.timeline.records

    def test_inert_retry_policy_changes_nothing(self):
        """Retry enabled but with timeouts no run can hit: identical."""
        baseline = SystemUnderTest(small_config()).run()
        inert = SystemUnderTest(
            small_config(
                retry=RetryPolicy(
                    enabled=True, timeout_web_s=1e6, timeout_rmi_s=1e6
                )
            )
        ).run()
        assert inert.responses == baseline.responses
        assert inert.timeline.records == baseline.timeline.records

    def test_event_outside_run_changes_nothing(self):
        baseline = SystemUnderTest(small_config()).run()
        late = SystemUnderTest(
            small_config(
                events=(
                    FaultEvent(kind="tier_crash", start_s=1e6, duration_s=1.0),
                )
            )
        ).run()
        assert late.responses == baseline.responses
        assert late.timeline.records == baseline.timeline.records

    def test_fault_free_run_has_zeroed_stats(self):
        result = SystemUnderTest(small_config()).run()
        stats = result.resilience
        assert stats is not None
        assert stats.total_offered > 0
        assert stats.total_failed == 0
        assert stats.total_retries == 0
        assert stats.total_timeouts == 0
        assert stats.total_shed == 0
        assert stats.zombie_completions == 0
        assert stats.down_ticks == ()


class TestCrash:
    CRASH = (FaultEvent(kind="tier_crash", start_s=50.0, duration_s=10.0),)

    def test_crash_drops_work_then_recovers(self):
        result = SystemUnderTest(small_config(events=self.CRASH)).run()
        stats = result.resilience
        assert len(stats.down_ticks) == 100  # 10 s of 0.1 s ticks
        assert stats.total_failed > 0
        in_outage = [
            t
            for per_type in result.responses
            for t, _ in per_type
            if 50.1 < t <= 60.0
        ]
        assert in_outage == []
        after = [
            t for per_type in result.responses for t, _ in per_type if t > 65.0
        ]
        assert after  # service resumed

    def test_retry_recovers_failed_operations(self):
        plain = SystemUnderTest(small_config(events=self.CRASH)).run()
        retried = SystemUnderTest(
            small_config(events=self.CRASH, retry=GENEROUS_RETRY)
        ).run()
        assert retried.resilience.total_retries > 0
        assert successes(retried) > successes(plain)
        assert retried.resilience.total_failed < plain.resilience.total_failed

    def test_retries_never_inflate_throughput(self):
        """Successes are bounded by offered first attempts even when
        the driver injects hundreds of retries."""
        result = SystemUnderTest(
            small_config(events=self.CRASH, retry=GENEROUS_RETRY)
        ).run()
        stats = result.resilience
        assert stats.total_retries > 0
        assert successes(result) <= stats.total_offered
        assert (
            successes(result)
            + stats.total_failed
            + result.resilience.zombie_completions
            <= stats.total_offered + stats.total_retries
        )


class TestFaultEffects:
    def test_db_slowdown_degrades_goodput_in_window(self):
        def in_window(result):
            return sum(
                1
                for per_type in result.responses
                for t, _ in per_type
                if 50.0 <= t < 80.0
            )

        baseline = SystemUnderTest(small_config()).run()
        slowed = SystemUnderTest(
            small_config(
                events=(
                    FaultEvent(
                        kind="db_slowdown",
                        start_s=50.0,
                        duration_s=30.0,
                        magnitude=4.0,
                    ),
                )
            )
        ).run()
        assert in_window(slowed) < 0.9 * in_window(baseline)

    def test_timeouts_abandon_requests_as_zombies(self):
        tiny = RetryPolicy(
            enabled=True,
            timeout_web_s=0.1,
            timeout_rmi_s=0.1,
            max_attempts=1,  # abandon permanently, never retry
        )
        result = SystemUnderTest(small_config(retry=tiny)).run()
        stats = result.resilience
        assert stats.total_timeouts > 0
        assert stats.zombie_completions > 0
        # Zombie completions are not client-visible throughput.
        assert successes(result) + stats.total_failed <= stats.total_offered


class TestBrownout:
    def test_brownout_sheds_only_low_priority_types(self):
        config = small_config(
            degradation=DegradationPolicy(
                enabled=True,
                brownout_threshold=0.25,
                sustain_ticks=5,
                max_shed_fraction=0.95,
                shed_priority_below=1,
            )
        )
        workload = dataclasses.replace(
            config.workload,
            injection_rate=int(round(config.workload.injection_rate * 1.5)),
        )
        config = dataclasses.replace(config, workload=workload)
        result = SystemUnderTest(config).run()
        stats = result.resilience
        assert stats.total_shed > 0
        for type_index, spec in enumerate(config.workload.transactions):
            if spec.priority >= 1:
                assert stats.shed[type_index] == 0
            else:
                assert stats.shed[type_index] > 0


class TestOpenAtEnd:
    """An operation still open when the run ends is censored: it counts
    neither as served nor as lost."""

    @pytest.mark.parametrize("seed", [1, 3, 104])
    def test_fault_free_quick_run_loses_nothing(self, seed):
        # At these seeds an operation is still in the app server at the
        # last tick.
        report = evaluate_resilience(SystemUnderTest(quick_config(seed)).run())
        assert report.open_ops > 0
        assert report.failed_ops == 0
        assert report.availability == 1.0

    def test_refusals_still_count_as_losses(self):
        config = quick_config()
        workload = dataclasses.replace(
            config.workload,
            injection_rate=int(round(config.workload.injection_rate * OVERLOAD)),
        )
        result = SystemUnderTest(dataclasses.replace(config, workload=workload)).run()
        report = evaluate_resilience(result)
        assert sum(result.rejected) > 0
        assert report.open_ops > 0
        assert report.availability < 1.0

    def test_every_operation_is_served_lost_or_open(self):
        # With faults active every lost operation is counted as failed,
        # so the three outcomes add up to the operations offered.
        result = SystemUnderTest(
            small_config(events=TestCrash.CRASH, retry=GENEROUS_RETRY)
        ).run()
        stats = result.resilience
        assert stats.total_retries > 0 and stats.total_failed > 0
        assert (
            successes(result) + stats.total_failed + stats.open_ops
            == stats.total_offered
        )
