"""Tests for the method registry and the flat profile shape."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import JvmConfig, MachineConfig
from repro.cpu.regions import AddressSpace
from repro.experiments.common import quick_config
from repro.jvm.methods import (
    HOTTEST_METHOD_NAME,
    JITED_COMPONENT_SHARES,
    MethodRegistry,
    flat_profile_weights,
)
from repro.util.rng import RngFactory
from repro.workload.presets import jbb2000_like, jvm98_like


def _scaled(config, n_jited_methods, warm_methods):
    jvm = dataclasses.replace(
        config.jvm, n_jited_methods=n_jited_methods, warm_methods=warm_methods
    )
    return dataclasses.replace(config, jvm=jvm)


#: The three workloads ``tab_baselines`` contrasts at the quick scale.
BASELINE_CONFIGS = {
    "jas2004": quick_config(),
    "jbb2000": _scaled(jbb2000_like(duration_s=420.0), 300, 8),
    "jvm98": _scaled(jvm98_like(duration_s=420.0), 150, 5),
}


@pytest.fixture(scope="module")
def registry():
    jvm = JvmConfig(n_jited_methods=2000, warm_methods=100)
    space = AddressSpace.build(MachineConfig(), jvm)
    return MethodRegistry(jvm, space, random.Random(1))


class TestFlatProfileWeights:
    def test_normalized(self):
        weights = flat_profile_weights(1000, 50, 0.5, random.Random(0))
        assert sum(weights) == pytest.approx(1.0)

    def test_warm_head_carries_configured_share(self):
        weights = flat_profile_weights(1000, 50, 0.5, random.Random(0))
        assert sum(weights[:50]) == pytest.approx(0.5)

    def test_paper_scale_satisfies_both_constraints(self):
        """At 8500 methods / 224 warm, the hottest stays under 1% and
        the top 224 cover exactly 50% — the two Figure 4 statistics."""
        weights = flat_profile_weights(8500, 224, 0.5, random.Random(0))
        ordered = sorted(weights, reverse=True)
        assert ordered[0] < 0.01
        assert sum(ordered[:224]) >= 0.499

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            flat_profile_weights(10, 10, 0.5, random.Random(0))
        with pytest.raises(ValueError):
            flat_profile_weights(10, 2, 1.5, random.Random(0))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(50, 3000),
        warm_frac=st.floats(0.02, 0.3),
        share=st.floats(0.3, 0.7),
    )
    def test_shape_properties(self, n, warm_frac, share):
        warm = max(1, int(n * warm_frac))
        weights = flat_profile_weights(n, warm, share, random.Random(2))
        assert len(weights) == n
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0)
        assert sum(weights[:warm]) == pytest.approx(share, rel=1e-6)


class TestRegistry:
    def test_population_size(self, registry):
        assert len(registry.methods) == 2000
        assert len(registry.jited_pool) == 2000

    def test_hottest_method_is_the_char_converter(self, registry):
        hottest = registry.methods_by_weight()[0]
        assert hottest.name == HOTTEST_METHOD_NAME
        assert hottest.component == "javalib"

    def test_methods_for_share(self, registry):
        n = registry.methods_for_share(0.5)
        assert 60 <= n <= 160  # near the configured warm head of 100

    def test_top_n_share_monotone(self, registry):
        assert registry.top_n_share(10) < registry.top_n_share(100)
        assert registry.top_n_share(2000) == pytest.approx(1.0)

    def test_component_shares_roughly_match_spec(self, registry):
        for component, expected in JITED_COMPONENT_SHARES:
            share = registry.component_share(component)
            assert share == pytest.approx(expected, abs=0.08)

    def test_jas2004_is_a_small_share(self, registry):
        assert registry.component_share("jas2004") < 0.15

    def test_native_pools_exist(self, registry):
        for component in ("was_nonjited", "web", "db2"):
            pool = registry.native_pool(component)
            assert len(pool) > 0

    def test_methods_have_unique_uids(self, registry):
        uids = [m.unit.uid for m in registry.methods]
        assert len(set(uids)) == len(uids)

    def test_hottest_share_accessor(self, registry):
        assert registry.hottest_share() == pytest.approx(
            registry.methods_by_weight()[0].weight / registry.total_weight()
        )


@pytest.mark.parametrize("name", sorted(BASELINE_CONFIGS))
def test_registry_holds_the_flat_profile_weights(name):
    """A registry's method weights are ``flat_profile_weights`` drawn
    first from its stream, so a profile needs no registry."""
    config = BASELINE_CONFIGS[name]
    jvm = config.jvm
    space = AddressSpace.build(config.machine, jvm, config.workload.sharing)
    registry = MethodRegistry(jvm, space, RngFactory(config.seed).stream("registry"))
    weights = flat_profile_weights(
        jvm.n_jited_methods,
        jvm.warm_methods,
        jvm.warm_share,
        RngFactory(config.seed).stream("registry"),
    )
    assert weights == [m.weight for m in registry.methods]
