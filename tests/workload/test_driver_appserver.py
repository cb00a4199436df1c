"""Tests for the driver, web server and application server."""

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import WorkloadConfig
from repro.workload.appserver import AppServer
from repro.workload.driver import Driver
from repro.workload.timeline import COMPONENTS
from repro.workload.transactions import Request
from repro.workload.webserver import WebServer


@pytest.fixture()
def config():
    return WorkloadConfig(duration_s=100.0, ramp_up_s=20.0, ramp_down_s=10.0)


class TestDriver:
    def test_arrival_rate_matches_ir(self, config):
        driver = Driver(config, random.Random(0))
        total = 0
        n_ticks = 3000
        for i in range(n_ticks):
            total += sum(driver.arrivals(50.0))  # steady region
        rate = total / (n_ticks * config.tick_s)
        assert rate == pytest.approx(config.target_ops_per_s, rel=0.05)

    def test_ramp_envelope(self, config):
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 0.0
        assert driver.load_factor(10.0) == pytest.approx(0.5)
        assert driver.load_factor(50.0) == 1.0
        assert driver.load_factor(95.0) == pytest.approx(0.5)

    def test_ramp_edges(self, config):
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 0.0
        # Exactly at the ramp-up boundary the envelope is already full.
        assert driver.load_factor(config.ramp_up_s) == 1.0
        assert driver.load_factor(config.ramp_up_s - 1e-9) < 1.0
        down_start = config.duration_s - config.ramp_down_s
        assert driver.load_factor(down_start) == 1.0
        assert driver.load_factor(down_start + 1e-6) < 1.0
        assert driver.load_factor(config.duration_s) == 0.0

    def test_no_ramp_down(self):
        config = WorkloadConfig(duration_s=100.0, ramp_up_s=20.0, ramp_down_s=0.0)
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(99.9) == 1.0
        assert driver.load_factor(100.0) == 1.0

    def test_no_ramp_up(self):
        config = WorkloadConfig(duration_s=100.0, ramp_up_s=0.0, ramp_down_s=10.0)
        driver = Driver(config, random.Random(0))
        assert driver.load_factor(0.0) == 1.0

    def test_arrivals_count_first_attempts_only(self, config):
        driver = Driver(config, random.Random(0))
        total = sum(sum(driver.arrivals(50.0)) for _ in range(100))
        assert driver.first_attempts == total
        assert total > 0
        # Retries (when a policy is active) never pass through arrivals.
        assert driver.due_retries(1e9) == []
        assert driver.first_attempts == total

    def test_mix_follows_shares(self, config):
        driver = Driver(config, random.Random(1))
        counts = [0] * len(config.transactions)
        for _ in range(20000):
            for k, n in enumerate(driver.arrivals(50.0)):
                counts[k] += n
        total = sum(counts)
        for k, spec in enumerate(config.transactions):
            assert counts[k] / total == pytest.approx(spec.share, abs=0.02)


class TestWebServer:
    def test_routing_counts_by_protocol(self, config):
        web = WebServer(random.Random(2))
        for spec in config.transactions:
            web.route(spec)
        assert web.web_requests == 3  # Browse, Purchase, Manage
        assert web.rmi_requests == 1  # WorkOrder

    def test_overhead_scales_by_protocol(self, config):
        web = WebServer(random.Random(3))
        http = config.transactions[0]
        rmi = next(t for t in config.transactions if t.protocol == "rmi")
        http_overheads = [web.response_overhead_s(http) for _ in range(100)]
        rmi_overheads = [web.response_overhead_s(rmi) for _ in range(100)]
        assert sum(http_overheads) > sum(rmi_overheads)


class TestAppServer:
    def make_request(self, config, seed=0, io_count=0):
        return Request(0, config.transactions[0], 0.0, random.Random(seed), io_count)

    def test_serves_and_completes(self, config):
        server = AppServer(config, n_cores=4)
        request = self.make_request(config)
        server.admit(request)
        completed, ios, by_comp, by_type, used = server.serve(1000.0)
        assert completed == [request]
        assert used == pytest.approx(request.total_cpu_ms)
        assert sum(by_comp) == pytest.approx(used)
        assert by_type[0] == pytest.approx(used)

    def test_component_attribution_follows_spec(self, config):
        server = AppServer(config, n_cores=4)
        server.admit(self.make_request(config))
        _, _, by_comp, _, used = server.serve(1000.0)
        spec = config.transactions[0]
        for i, name in enumerate(COMPONENTS):
            expected = spec.cpu_ms.get(name, 0.0) / spec.total_cpu_ms
            assert by_comp[i] / used == pytest.approx(expected, rel=1e-6)

    def test_thread_pool_limits_concurrency(self):
        config = WorkloadConfig(thread_pool=2)
        server = AppServer(config, n_cores=4)
        for i in range(5):
            server.admit(self.make_request(config, seed=i))
        # A tiny quantum: only the two pooled requests make progress.
        server.serve(0.001)
        assert len(server.running) == 2
        assert len(server.accept_queue) == 3

    def test_io_blocking(self, config):
        server = AppServer(config, n_cores=4)
        request = self.make_request(config, io_count=1)
        server.admit(request)
        completed, ios, *_ = server.serve(1000.0)
        assert not completed
        assert ios == [request]
        assert server.io_blocked == 1
        request.io_complete()  # the disk model does this on completion
        server.resume(request)
        assert server.io_blocked == 0
        completed, *_ = server.serve(1000.0)
        assert completed == [request]

    def test_capacity_is_respected(self, config):
        server = AppServer(config, n_cores=4)
        for i in range(20):
            server.admit(self.make_request(config, seed=i))
        _, _, _, _, used = server.serve(50.0)
        assert used <= 50.0 + 1e-6

    def test_processor_sharing_fairness(self, config):
        """Equal requests make similar progress under sharing."""
        server = AppServer(config, n_cores=4)
        a = self.make_request(config, seed=1)
        b = self.make_request(config, seed=1)
        server.admit(a)
        server.admit(b)
        server.serve(10.0)
        assert a.consumed_cpu_ms == pytest.approx(b.consumed_cpu_ms, rel=0.01)

    def test_request_waiting_on_io_cannot_run(self, config):
        server = AppServer(config, n_cores=4)
        request = self.make_request(config, io_count=1)
        request.consume(request.total_cpu_ms)
        server.running.append(request)
        with pytest.raises(RuntimeError):
            server.serve(10.0)


class ReferenceAppServer(AppServer):
    """The scheduler before its tick loop was fused: ``serve`` below is
    a verbatim copy built on :meth:`Request.consume`,
    :meth:`Request.cpu_until_next_io` and :attr:`Request.done`, the
    single-step semantics the fused loop must reproduce bit for bit."""

    def __init__(self, config: WorkloadConfig, n_cores: int):
        super().__init__(config, n_cores)
        self._proportions: Dict[str, Tuple[float, ...]] = {}
        for spec in config.transactions:
            total = spec.total_cpu_ms
            self._proportions[spec.name] = tuple(
                spec.cpu_ms.get(name, 0.0) / total for name in COMPONENTS
            )

    def serve(self, capacity_ms):
        self._fill_pool()
        cpu_by_component = [0.0] * len(COMPONENTS)
        cpu_by_type = [0.0] * len(self.config.transactions)
        completed: List[Request] = []
        io_submissions: List[Request] = []
        used = 0.0

        remaining = capacity_ms
        # Processor sharing via repeated equal division: requests that
        # finish (or block on I/O) early return their unused share.
        while remaining > 1e-9 and self.running:
            share = remaining / len(self.running)
            still_running: List[Request] = []
            consumed_this_round = 0.0
            for request in self.running:
                want = min(share, request.remaining_cpu_ms)
                budget = request.cpu_until_next_io()
                if budget is not None:
                    want = min(want, budget + 1e-12)
                before = request.consumed_cpu_ms
                hit_io = request.consume(want)
                delta = request.consumed_cpu_ms - before
                consumed_this_round += delta
                proportions = self._proportions[request.spec.name]
                for i, p in enumerate(proportions):
                    cpu_by_component[i] += delta * p
                cpu_by_type[request.type_index] += delta
                if hit_io:
                    io_submissions.append(request)
                    self.io_blocked += 1
                elif request.done:
                    completed.append(request)
                else:
                    still_running.append(request)
            self.running = still_running
            used += consumed_this_round
            remaining -= consumed_this_round
            # If nothing was consumed this round every runnable request
            # is finished/blocked; stop to avoid spinning.
            if consumed_this_round <= 1e-12:
                break
            self._fill_pool()

        return completed, io_submissions, cpu_by_component, cpu_by_type, used


#: One arrival: (tick, type index, I/O points, CPU inflation, RNG seed).
ARRIVALS = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(0, 6),
        st.one_of(st.just(1.0), st.floats(0.05, 8.0)),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=40,
)


class TestFusedSchedulerOracle:
    """The fused ``AppServer.serve`` against :class:`ReferenceAppServer`.

    Both servers get twin requests (same type, seed, I/O plan and
    inflation), the same capacity every tick, and the same I/O
    completions; every output and every request's state must match
    exactly — floats compared with ``==``, not approximately.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        thread_pool=st.integers(1, 64),
        arrivals=ARRIVALS,
        # Tick capacities over the whole range, and comparable to one
        # request's demand so requests advance partway between I/O points.
        capacities=st.lists(
            st.one_of(st.floats(1e-9, 1e4), st.floats(0.5, 40.0)),
            min_size=1,
            max_size=12,
        ),
        io_ticks=st.integers(0, 3),
    )
    def test_matches_single_step_reference(
        self, thread_pool, arrivals, capacities, io_ticks
    ):
        config = WorkloadConfig(thread_pool=thread_pool)
        fused = AppServer(config, n_cores=4)
        reference = ReferenceAppServer(config, n_cores=4)
        twins: List[Tuple[Request, Request]] = []
        ids: Dict[int, int] = {}  # id(request) -> twin index
        #: (due tick, twin index) of requests blocked on I/O.
        blocked: List[Tuple[int, int]] = []

        def index_of(requests):
            return [ids[id(r)] for r in requests]

        for tick, capacity in enumerate(capacities):
            for due, index in [b for b in blocked if b[0] <= tick]:
                blocked.remove((due, index))
                for server, request in zip((fused, reference), twins[index]):
                    request.io_complete()
                    server.resume(request)
            for at, type_index, io_count, inflation, seed in arrivals:
                if at != tick:
                    continue
                spec = config.transactions[type_index]
                pair = tuple(
                    Request(
                        type_index, spec, 0.0, random.Random(seed), io_count, inflation
                    )
                    for _ in range(2)
                )
                for request in pair:
                    ids[id(request)] = len(twins)
                twins.append(pair)
                fused.admit(pair[0])
                reference.admit(pair[1])

            got = fused.serve(capacity)
            want = reference.serve(capacity)
            assert index_of(got[0]) == index_of(want[0])  # completed
            assert index_of(got[1]) == index_of(want[1])  # I/O submissions
            assert got[2] == want[2]  # CPU by component
            assert got[3] == want[3]  # CPU by type
            assert got[4] == want[4]  # used
            assert index_of(fused.running) == index_of(reference.running)
            assert index_of(fused.accept_queue) == index_of(reference.accept_queue)
            assert fused.io_blocked == reference.io_blocked
            for a, b in twins:
                assert (a.consumed_cpu_ms, a.next_io, a.in_io) == (
                    b.consumed_cpu_ms,
                    b.next_io,
                    b.in_io,
                )
            blocked.extend((tick + 1 + io_ticks, ids[id(r)]) for r in got[1])
