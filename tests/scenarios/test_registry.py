"""Registry contents and behaviour."""

import pytest

from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.registry import _REGISTRY

EXPECTED_BUILTINS = {
    # figure scenarios (the experiment layer consumes these)
    "fig-original",
    "fig-enhanced-f4",
    "fig-enhanced-f2",
    "fig-leader-fanout-ablation",
    "fig-no-digest-ablation",
    "scaling-template",
    # WAN / fault scenarios
    "wan-3-region",
    "partition-heal",
    "churn-flux",
    "degraded-links",
}


def test_builtins_registered():
    assert EXPECTED_BUILTINS <= set(scenario_names())


def test_every_scenario_has_description_and_valid_defaults():
    for spec in iter_scenarios():
        assert spec.description
        assert spec.seeds
        assert spec.gossip() is not spec.gossip()  # factory returns fresh configs


def test_figure_scenarios_carry_paper_gossip():
    assert isinstance(get_scenario("fig-original").gossip(), OriginalGossipConfig)
    f4 = get_scenario("fig-enhanced-f4").gossip()
    assert isinstance(f4, EnhancedGossipConfig) and (f4.fout, f4.ttl) == (4, 9)
    f2 = get_scenario("fig-enhanced-f2").gossip()
    assert (f2.fout, f2.ttl) == (2, 19)
    fig10 = get_scenario("fig-leader-fanout-ablation").gossip()
    assert fig10.leader_fanout == fig10.fout == 4
    fig11 = get_scenario("fig-no-digest-ablation").gossip()
    assert fig11.use_digests is False


def test_wan_scenarios_have_topologies_and_faults():
    wan = get_scenario("wan-3-region")
    assert wan.topology is not None and len(wan.topology.regions) == 3
    assert wan.organizations == 3
    assert get_scenario("partition-heal").faults
    assert get_scenario("churn-flux").faults
    degraded = get_scenario("degraded-links")
    assert degraded.topology is not None and degraded.faults


def test_get_unknown_scenario_raises_with_listing():
    with pytest.raises(KeyError) as excinfo:
        get_scenario("nope")
    assert "wan-3-region" in str(excinfo.value)


def test_register_refuses_silent_overwrite():
    spec = get_scenario("wan-3-region")
    with pytest.raises(ValueError):
        register(spec)
    # replace=True is the explicit escape hatch; restore the original.
    assert register(spec, replace=True) is spec


def test_register_and_cleanup_custom_scenario():
    spec = ScenarioSpec(
        name="test-custom", description="x", gossip=EnhancedGossipConfig.paper_f4
    )
    try:
        register(spec)
        assert get_scenario("test-custom") is spec
    finally:
        _REGISTRY.pop("test-custom", None)
    assert "test-custom" not in scenario_names()
