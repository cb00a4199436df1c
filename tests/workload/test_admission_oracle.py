"""The SUT's fused admission against the components it replaces.

:func:`repro.workload.sut.admission` folds ``Database.plan_ios`` (with
the ``poisson`` it calls) and ``Request.__init__`` into one closure, and
the tick loop inlines ``WebServer.response_overhead_s`` at completion.
This drives both sides from equal seeds and checks every admission bit
for bit: the request, the database's counters and every stream's state.
Floats are compared with ``==``, not approximately.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.config import WorkloadConfig
from repro.workload.database import Database
from repro.workload.sut import admission
from repro.workload.transactions import Request
from repro.workload.webserver import WebServer

#: Query rates from every branch of ``poisson``: none drawn (0), the
#: product form (0.4 and the shipped 9-16) and the log-space sum (>30).
RATES = st.one_of(
    st.just(0.0), st.just(0.4), st.floats(9.0, 16.0), st.floats(31.0, 60.0)
)

#: One admission: (type index, arrival s, DB miss factor, CPU inflation,
#: client attempt).  Large miss factors reach ``plan_ios``'s 0.98 cap.
ADMISSIONS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.floats(0.0, 4000.0),
        st.one_of(st.just(1.0), st.floats(0.1, 50.0)),
        st.one_of(st.just(1.0), st.floats(0.2, 8.0)),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(
    rates=st.lists(RATES, min_size=4, max_size=4),
    buffer_pool_hit=st.floats(0.0, 1.0),
    injection_rate=st.integers(1, 400),
    admissions=ADMISSIONS,
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_admission_matches_components(
    rates, buffer_pool_hit, injection_rate, admissions, seed
):
    defaults = WorkloadConfig().transactions
    config = WorkloadConfig(
        injection_rate=injection_rate,
        buffer_pool_hit=buffer_pool_hit,
        transactions=tuple(
            dataclasses.replace(spec, db_queries=rate)
            for spec, rate in zip(defaults, rates)
        ),
    )
    specs = config.transactions

    # The components, called the way the tick loop used to call them.
    database = Database(config, random.Random(seed))
    request_rng = random.Random(seed + 1)
    webserver = WebServer(random.Random(seed + 2))
    # The fused side, from the same seeds.
    fused_database = Database(config, random.Random(seed))
    fused_request_rng = random.Random(seed + 1)
    fused_web_rng = random.Random(seed + 2)
    admit = admission(specs, fused_database, fused_request_rng)

    for type_index, now, miss_factor, inflation, attempt in admissions:
        spec = specs[type_index]
        database.miss_factor = fused_database.miss_factor = miss_factor

        webserver.route(spec)
        io_count = database.plan_ios(spec)
        want = Request(type_index, spec, now, request_rng, io_count, inflation)
        want.attempt = attempt
        got = admit(type_index, now, inflation, attempt)

        assert len(got.io_thresholds) == io_count
        assert got.total_cpu_ms == want.total_cpu_ms
        assert got.io_thresholds == want.io_thresholds
        for name in Request.__slots__:
            assert getattr(got, name) == getattr(want, name), name
        assert fused_database.queries_issued == database.queries_issued
        assert fused_database.buffer_misses == database.buffer_misses
        assert fused_database.rng.getstate() == database.rng.getstate()
        assert fused_request_rng.getstate() == request_rng.getstate()
        assert fused_web_rng.getstate() == webserver.rng.getstate()

        # Its completion, with the tick loop's inlined front-end overhead.
        mean_ms = (
            WebServer.HTTP_OVERHEAD_MS
            if spec.protocol == "web"
            else WebServer.RMI_OVERHEAD_MS
        )
        fused_overhead = (0.5 + fused_web_rng.random()) * mean_ms / 1000.0
        assert fused_overhead == webserver.response_overhead_s(spec)
        assert fused_web_rng.getstate() == webserver.rng.getstate()
