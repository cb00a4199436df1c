"""Tests for the CPI correlation study and its group constraints."""

import pytest

from repro.core.correlation import CpiCorrelationStudy
from repro.hpm.counters import CounterBank
from repro.hpm.events import Event
from repro.hpm.hpmstat import HpmStat


class SyntheticExecutor:
    """A machine whose CPI is driven by one synthetic event.

    Windows have fixed cycles; a per-window intensity drives both the
    event count and the stall cycles, so the event must correlate
    positively with CPI, while a throughput-proportional event must
    correlate negatively.
    """

    CYCLES = 100_000

    def execute_window(self, window_index):
        intensity = 1.0 + 0.5 * ((window_index * 2654435761) % 97) / 97.0
        stall_cycles = 30_000 * intensity
        instructions = int((self.CYCLES - stall_cycles) / 0.5)
        bank = CounterBank()
        bank.add(Event.PM_CYC, self.CYCLES)
        bank.add(Event.PM_INST_CMPL, instructions)
        bank.add(Event.PM_INST_DISP, instructions * 2)
        bank.add(Event.PM_CYC_INST_CMPL, int(instructions * 0.5))
        # Stall-causing event: scales with intensity.
        bank.add(Event.PM_SYNC_CNT, int(100 * intensity))
        bank.add(Event.PM_SYNC_SRQ_CYC, int(1000 * intensity))
        # Throughput-proportional event.
        bank.add(Event.PM_LARX, instructions // 600)
        bank.add(Event.PM_STCX, instructions // 600)
        return bank.snapshot()


@pytest.fixture()
def hpm():
    return HpmStat(SyntheticExecutor(), window_interval_s=0.1)


class TestCpiCorrelationStudy:
    def test_stall_event_positive_throughput_event_negative(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=40)
        assert report.r_of(Event.PM_SYNC_CNT) > 0.9
        assert report.r_of(Event.PM_LARX) < -0.9

    def test_cyc_inst_cmpl_negative(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=40)
        assert report.r_of(Event.PM_CYC_INST_CMPL) < -0.9

    def test_groups_measured_on_disjoint_windows(self, hpm):
        executor = SyntheticExecutor()
        calls = []
        original = executor.execute_window

        def tracking(idx):
            calls.append(idx)
            return original(idx)

        executor.execute_window = tracking
        stat = HpmStat(executor, 0.1)
        CpiCorrelationStudy(stat).run(windows_per_group=10, start_window=100)
        n_groups = len(stat.catalog)
        assert len(calls) == n_groups * 10
        assert len(set(calls)) == len(calls)  # no window reused
        assert min(calls) == 100

    def test_correlations_keyed_by_event(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=20)
        for event, corr in report.correlations.items():
            assert corr.event is event
            assert -1.0 <= corr.r <= 1.0
            assert corr.n_samples == 20

    def test_base_events_not_self_correlated(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=20)
        assert Event.PM_CYC not in report.correlations
        assert Event.PM_INST_CMPL not in report.correlations

    def test_bars_sorted_descending(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=20)
        values = [r for _, r in report.bars()]
        assert values == sorted(values, reverse=True)

    def test_strongest(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=20)
        top = report.strongest(3)
        assert len(top) == 3
        assert abs(top[0].r) >= abs(top[1].r) >= abs(top[2].r)

    def test_minimum_windows_enforced(self, hpm):
        with pytest.raises(ValueError):
            CpiCorrelationStudy(hpm).run(windows_per_group=2)

    def test_special_pairs_populated(self, hpm):
        report = CpiCorrelationStudy(hpm).run(windows_per_group=20)
        assert report.r_target_miss_vs_icache_miss is not None
        assert report.r_speculation_vs_l1_miss is not None
        assert report.r_branches_vs_target_miss is not None
        assert report.r_cond_miss_vs_branches is not None
