"""Tests for the disk model and the database tier."""

import random

import pytest

from repro.config import DiskConfig, WorkloadConfig
from repro.workload.appserver import AppServer
from repro.workload.database import Database
from repro.workload.disk import DiskModel
from repro.workload.transactions import Request


def make_request(seed=0, io_count=1):
    cfg = WorkloadConfig()
    request = Request(0, cfg.transactions[0], 0.0, random.Random(seed), io_count)
    request.consume(request.total_cpu_ms + 1)  # drive it into I/O
    assert request.in_io
    return request


class TestDiskModel:
    def test_ram_disk_completes_immediately(self):
        disk = DiskModel(DiskConfig.ram_disk(), tick_s=0.1)
        disk.submit(make_request())
        assert len(disk.tick()) == 1

    def test_hard_disk_throughput_bounded(self):
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=10.0), tick_s=0.1)
        for i in range(30):
            disk.submit(make_request(seed=i))
        done = disk.tick()
        # 100 ms tick / 10 ms service = 10 requests max.
        assert len(done) == 10
        assert disk.queue_length == 20

    def test_more_disks_more_throughput(self):
        one = DiskModel(DiskConfig.hard_disks(1, 10.0), 0.1)
        four = DiskModel(DiskConfig.hard_disks(4, 10.0), 0.1)
        for i in range(50):
            one.submit(make_request(seed=i))
            four.submit(make_request(seed=100 + i))
        assert len(four.tick()) == len(one.tick()) * 4

    def test_fifo_order(self):
        disk = DiskModel(DiskConfig.hard_disks(1, 60.0), tick_s=0.1)
        first = make_request(seed=1)
        second = make_request(seed=2)
        disk.submit(first)
        disk.submit(second)
        done = disk.tick()
        assert done == [first]

    def test_utilization_accounting(self):
        disk = DiskModel(DiskConfig.hard_disks(2, 10.0), tick_s=0.1)
        for i in range(10):
            disk.submit(make_request(seed=i))
        disk.tick()
        assert 0.0 < disk.utilization(1) <= 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DiskConfig(kind="tape")
        with pytest.raises(ValueError):
            DiskConfig(kind="hdd", n_disks=0)

    def test_fault_clear_does_not_bank_degraded_carry(self):
        """Regression: the carry-over cap must use the un-degraded
        service quantum.  Capping against the fault-inflated quantum
        let the model bank several healthy quanta of free capacity,
        paid out as a completion burst the tick a disk_degraded fault
        cleared."""
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=40.0), tick_s=0.1)
        for i in range(10):
            disk.submit(make_request(seed=i))
        disk.service_factor = 3.0  # degraded service: 120 ms > the tick
        assert disk.tick() == []  # tick's 100 ms cannot finish one I/O
        disk.service_factor = 1.0  # fault clears
        burst = disk.tick()
        # At most one healthy quantum (40 ms) carries over: the first
        # healthy tick serves floor((100 + 40) / 40) = 3 requests — not
        # the 5 that carrying min(100, 120) = 100 ms used to allow.
        assert len(burst) == 3

    def test_healthy_carry_still_preserved(self):
        """The fix must not change fault-free carry behavior: residual
        budget up to one quantum still rolls into the next tick."""
        disk = DiskModel(DiskConfig.hard_disks(1, service_ms=30.0), tick_s=0.1)
        for i in range(10):
            disk.submit(make_request(seed=i))
        assert len(disk.tick()) == 3  # 100 // 30, residual 10 ms kept
        assert len(disk.tick()) == 3  # (10 + 100) // 30
        assert len(disk.tick()) == 4  # (20 + 100) // 30

    def test_batch_handoff_matches_single_requests(self):
        """The SUT's batched handoff against ``submit``/``resume`` one
        request at a time."""
        config = WorkloadConfig()
        sides = []
        for batched in (False, True):
            disk = DiskModel(DiskConfig.hard_disks(2, service_ms=11.0), tick_s=0.1)
            server = AppServer(config, n_cores=4)
            requests = [make_request(seed=i, io_count=1 + i % 3) for i in range(40)]
            server.io_blocked = len(requests)
            resumed = []
            for chunk in (requests[:25], requests[25:]):
                if batched:
                    disk.submit_batch(chunk)
                else:
                    for request in chunk:
                        disk.submit(request)
                done = disk.tick()
                if batched:
                    server.resume_batch(done)
                else:
                    for request in done:
                        server.resume(request)
                resumed.append([requests.index(r) for r in done])
            assert not any(r.in_io for r in server.running)
            sides.append(
                (
                    resumed,
                    [requests.index(r) for r in server.running],
                    server.io_blocked,
                    disk.busy_ms,
                    disk.total_submitted,
                    disk.total_completed,
                    disk.queue_length,
                )
            )
        assert sides[0] == sides[1]

    def test_tick_rejects_request_not_waiting_on_io(self):
        disk = DiskModel(DiskConfig.ram_disk(), tick_s=0.1)
        request = make_request()
        request.io_complete()
        disk.submit(request)
        with pytest.raises(RuntimeError, match="not waiting on I/O"):
            disk.tick()


class TestDatabase:
    def make_db(self, ir=40, hit=0.72, seed=5):
        import dataclasses

        cfg = dataclasses.replace(
            WorkloadConfig(), injection_rate=ir, buffer_pool_hit=hit
        )
        return Database(cfg, random.Random(seed))

    def test_miss_rate_tracks_hit_ratio(self):
        db = self.make_db(hit=0.72)
        spec = WorkloadConfig().transactions[0]
        for _ in range(800):
            db.plan_ios(spec)
        assert db.observed_hit_ratio == pytest.approx(0.72, abs=0.03)

    def test_higher_ir_means_bigger_data_and_lower_hits(self):
        low = self.make_db(ir=40)
        high = self.make_db(ir=80)
        assert high.data_scale > low.data_scale
        assert high.effective_hit_ratio < low.effective_hit_ratio

    def test_plan_ios_counts(self):
        db = self.make_db()
        spec = WorkloadConfig().transactions[0]
        ios = db.plan_ios(spec)
        assert ios >= 0
        assert db.queries_issued > 0

    def test_hit_ratio_bounds(self):
        assert 0.3 <= self.make_db(ir=1000).effective_hit_ratio <= 0.98
