"""Tests for config JSON serialization (experiment manifests)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    FAULT_KINDS,
    DegradationPolicy,
    ExperimentConfig,
    FaultConfig,
    FaultEvent,
    RetryPolicy,
)
from repro.config_io import (
    FORMAT,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.workload.presets import (
    jas2004,
    jas2004_sovereign,
    jbb2000_like,
    jvm98_like,
    tpcw_like,
    trade6,
)


PRESETS = [
    ExperimentConfig,
    jas2004,
    jbb2000_like,
    jvm98_like,
    tpcw_like,
    jas2004_sovereign,
    trade6,
]


def asdict_oracle(config):
    """The previous ``config_to_dict``, ``dataclasses.asdict`` itself."""
    return {**dataclasses.asdict(config), "_format": FORMAT}


FAULT_EVENTS = st.builds(
    FaultEvent,
    kind=st.sampled_from(FAULT_KINDS),
    start_s=st.floats(0.0, 3600.0),
    duration_s=st.floats(0.1, 900.0),
    magnitude=st.floats(0.0, 1.0),
    target=st.integers(-1, 3),
)


@st.composite
def configs(draw):
    """A preset with a random seed, heap, faults, retry and degradation."""
    base = draw(st.sampled_from(PRESETS))()
    jvm = dataclasses.replace(
        base.jvm,
        heap_mb=draw(st.integers(256, 4096)),
        heap_large_pages=draw(st.booleans()),
        cold_mem_fraction=draw(st.none() | st.floats(0.0, 1.0)),
    )
    faults = FaultConfig(
        events=tuple(draw(st.lists(FAULT_EVENTS, max_size=3))),
        retry=RetryPolicy(
            enabled=draw(st.booleans()),
            max_attempts=draw(st.integers(1, 6)),
            backoff_base_s=draw(st.floats(0.01, 3.0)),
            jitter=draw(st.floats(0.0, 0.99)),
        ),
        degradation=DegradationPolicy(
            enabled=draw(st.booleans()),
            brownout_threshold=draw(st.floats(0.05, 1.0)),
            sustain_ticks=draw(st.integers(1, 20)),
        ),
    )
    return dataclasses.replace(
        base, seed=draw(st.integers(0, 2**63)), jvm=jvm, faults=faults
    )


class TestSerializer:
    @settings(max_examples=60, deadline=None)
    @given(config=configs())
    def test_matches_asdict(self, config):
        """The field walk builds ``asdict``'s tree: equal values, tuples
        kept as tuples, so the canonical JSON and the content keys are
        the same."""
        data = config_to_dict(config)
        oracle = asdict_oracle(config)
        assert data == oracle
        assert json.dumps(data, sort_keys=True) == json.dumps(oracle, sort_keys=True)

    def test_tree_shares_no_container_with_the_config(self):
        config = jas2004()
        data = config_to_dict(config)
        cpu_ms = data["workload"]["transactions"][0]["cpu_ms"]
        assert cpu_ms == config.workload.transactions[0].cpu_ms
        assert cpu_ms is not config.workload.transactions[0].cpu_ms
        assert type(data["workload"]["transactions"]) is tuple


class TestRoundTrip:
    @pytest.mark.parametrize("factory", PRESETS)
    def test_every_preset_round_trips(self, factory):
        config = factory()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "experiment.json"
        config = jas2004(ir=47, duration_s=777.0, seed=99)
        save_config(config, path)
        assert load_config(path) == config

    def test_json_is_plain(self):
        """The payload survives a strict JSON round trip."""
        data = config_to_dict(jas2004())
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt == jas2004()

    def test_format_marker_present(self, tmp_path):
        path = tmp_path / "c.json"
        save_config(ExperimentConfig(), path)
        assert json.loads(path.read_text())["_format"] == FORMAT


class TestFaultRoundTrip:
    def faulted_config(self):
        faults = FaultConfig(
            events=(
                FaultEvent(
                    kind="db_slowdown", start_s=100.0, duration_s=30.0, magnitude=3.0
                ),
                FaultEvent(
                    kind="tier_crash", start_s=200.0, duration_s=15.0, target=2
                ),
            ),
            retry=RetryPolicy(enabled=True, max_attempts=5, backoff_base_s=0.7),
            degradation=DegradationPolicy(enabled=True, brownout_threshold=0.4),
        )
        return dataclasses.replace(jas2004(duration_s=600.0), faults=faults)

    def test_fault_config_round_trips(self):
        config = self.faulted_config()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert rebuilt.faults.events[0].magnitude == 3.0
        assert rebuilt.faults.retry.enabled

    def test_fault_config_survives_strict_json(self, tmp_path):
        path = tmp_path / "faulted.json"
        config = self.faulted_config()
        save_config(config, path)
        assert load_config(path) == config

    def test_config_without_faults_section_loads_default(self):
        """Manifests written before the resilience subsystem existed
        have no "faults" key and must load with the zero-cost default."""
        data = config_to_dict(ExperimentConfig())
        del data["faults"]
        rebuilt = config_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.faults == FaultConfig()
        assert not rebuilt.faults.is_active
        assert rebuilt == ExperimentConfig()

    def test_default_faults_serialize_inactive(self):
        data = config_to_dict(ExperimentConfig())
        assert list(data["faults"]["events"]) == []
        assert data["faults"]["retry"]["enabled"] is False
        assert data["faults"]["degradation"]["enabled"] is False


class TestValidation:
    def test_missing_marker_rejected(self):
        data = config_to_dict(ExperimentConfig())
        del data["_format"]
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_wrong_marker_rejected(self):
        data = config_to_dict(ExperimentConfig())
        data["_format"] = "something/else"
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_loaded_config_is_usable(self, tmp_path):
        """A reloaded config drives a run to identical results."""
        from repro.workload.metrics import evaluate_run
        from repro.workload.sut import SystemUnderTest

        config = jas2004(duration_s=120.0, seed=5)
        path = tmp_path / "c.json"
        save_config(config, path)
        a = evaluate_run(SystemUnderTest(config).run())
        b = evaluate_run(SystemUnderTest(load_config(path)).run())
        assert a.jops == b.jops
        assert a.gc_count == b.gc_count
