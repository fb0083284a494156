"""Scenario runner: config materialization and end-to-end runs."""

import pytest

from repro.experiments.dissemination import DisseminationConfig
from repro.gossip.config import EnhancedGossipConfig
from repro.net.latency import TopologyLatency
from repro.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    dissemination_config,
    get_scenario,
    run_scenario,
)

SNAPSHOT_KEYS = {
    "scenario", "seed", "events_executed", "final_time", "latency_max",
    "latency_mean", "latency_p50", "latency_p95", "total_bytes",
    "total_messages", "by_kind_bytes", "dropped_messages",
    "blocks_via_recovery", "resilience", "link",
}


def test_config_materialization_plain_scenario():
    spec = get_scenario("fig-enhanced-f4")
    config = dissemination_config(spec, seed=9)
    assert isinstance(config, DisseminationConfig)
    assert config.seed == 9
    assert config.blocks == spec.workload.blocks
    assert config.network is None and config.org_regions is None
    assert config.background is None
    # full selects the paper-scale workload
    assert dissemination_config(spec, full=True).blocks == 1000
    # with_background overrides the spec default in both directions
    assert dissemination_config(spec, with_background=True).background is not None


def test_config_materialization_topology_scenario():
    spec = get_scenario("wan-3-region")
    config = dissemination_config(spec, seed=2)
    assert config.organizations == 3
    assert config.org_regions == {
        "org0": "eu-west", "org1": "us-east", "org2": "ap-south"
    }
    assert isinstance(config.network.latency, TopologyLatency)
    assert config.background is not None  # spec default


def test_wan_scenario_places_regions_on_network():
    run = run_scenario("wan-3-region", seed=1)
    network = run.result.net.network
    assert network.regions["peer-0"] == "eu-west"
    assert network.regions["peer-1"] == "us-east"
    assert network.regions["peer-2"] == "ap-south"
    assert network.regions["orderer"] == "eu-west"  # topology default
    assert run.result.coverage_complete()
    # The AP leader is two WAN hops of >= 90 ms behind the orderer.
    delay = run.result.net.tracker.orderer_to_leader_delay(0)
    assert delay is not None


def test_churn_scenario_recovers_all_peers():
    run = run_scenario("churn-flux", seed=1)
    assert len(run.faults.crashes) == 2
    assert run.result.coverage_complete()
    assert run.result.recovery_usage() > 0
    assert run.snapshot()["dropped_messages"] > 0


def test_degraded_links_scenario_drops_but_completes():
    run = run_scenario("degraded-links", seed=1)
    assert len(run.faults.degrades) == 1
    assert run.faults.degrades[0].dropped > 0
    assert run.result.coverage_complete()


def test_snapshot_shape_and_determinism():
    first = run_scenario("wan-3-region", seed=1).snapshot()
    second = run_scenario("wan-3-region", seed=1).snapshot()
    assert set(first) == SNAPSHOT_KEYS
    assert first == second  # bit-for-bit reproducible
    other_seed = run_scenario("wan-3-region", seed=2).snapshot()
    assert other_seed != first


def test_run_scenario_accepts_spec_and_default_seed():
    spec = ScenarioSpec(
        name="inline-test",
        description="unregistered inline spec",
        gossip=EnhancedGossipConfig.paper_f4,
        n_peers=10,
        workload=WorkloadSpec(blocks=2, idle_tail=0.0),
        seeds=(5,),
    )
    run = run_scenario(spec)  # no registration required for direct runs
    assert run.seed == 5
    assert run.result.coverage_complete()


def test_run_scenario_unknown_name():
    with pytest.raises(KeyError):
        run_scenario("does-not-exist")
