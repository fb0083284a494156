"""The adversarial scenario suite: registration, the byzantine-teasers
acceptance property, the resilience report, and sharded ≡ single-process
equality with adversarial injectors and churn in play."""

import pytest

from repro.faults.schedule import AdversaryEvent, JoinEvent, LeaveEvent
from repro.gossip.config import EnhancedGossipConfig
from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.scenarios.sharded import run_scenario_sharded
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec

ADVERSARIAL_SCENARIOS = {
    "byzantine-teasers",
    "lazy-forwarders",
    "digest-liars",
    "eclipse-attempt",
    "flash-crowd",
    "mass-departure",
    "flaky-links",
}


def test_adversarial_suite_registered():
    assert ADVERSARIAL_SCENARIOS <= set(scenario_names())
    for name in ADVERSARIAL_SCENARIOS:
        assert get_scenario(name).faults


@pytest.mark.parametrize("seed", get_scenario("byzantine-teasers").seeds)
def test_byzantine_teasers_acceptance(seed):
    """250 peers, 20% teasers: every seed converges with every stall
    rescued by the retry ladder — recovery never has to step in."""
    run = run_scenario("byzantine-teasers", seed=seed)
    snapshot = run.snapshot()
    assert run.result.coverage_complete()
    assert snapshot["blocks_via_recovery"] == 0
    counters = snapshot["resilience"]["counters"]
    assert counters["stalls_rescued_by_retry"] > 0
    assert counters["requests_abandoned"] == 0


def test_no_digest_liars_peer_keeps_digest_state_for_a_block_it_holds():
    """Liars re-advertise digests they cannot serve, so honest peers queue
    pairs and requests that only recovery resolves. Whatever path a block
    arrives by, its queued pairs are forwarded, its waiting requests
    served and its holder list dropped (at seed 1 the run used to end
    with 7 unforwarded pairs, 6 unserved requests and a stale holder list)."""
    run = run_scenario("digest-liars", seed=1)
    assert run.snapshot()["blocks_via_recovery"] > 0
    for peer in run.result.net.peers.values():
        missing = peer.gossip.push._missing or {}
        held = [number for number in missing if peer.get_block(number) is not None]
        assert held == [], peer.name


def test_resilience_report_shape():
    snapshot = run_scenario("flash-crowd", seed=1).snapshot()
    resilience = snapshot["resilience"]
    assert resilience["peers_joined"] == 5
    assert resilience["peers_departed"] == 0
    assert set(resilience["counters"]) >= {
        "requests_sent",
        "requests_retried",
        "request_timeouts",
        "requests_abandoned",
        "stalls_rescued_by_retry",
        "recovery_requests_sent",
        "blocks_recovered",
    }
    # Infection milestones: 100% excludes nobody here (no departures).
    full = resilience["infection"]["1"]
    assert full["blocks_reached"] == 6
    assert full["p50"] <= full["p95"] <= full["max"]


def test_mass_departure_shrinks_the_infection_denominator():
    snapshot = run_scenario("mass-departure", seed=1).snapshot()
    resilience = snapshot["resilience"]
    assert resilience["peers_departed"] == 10
    # Blocks emitted after the wave still reach "100%" of the remaining
    # membership, so the milestone exists for every block.
    assert resilience["infection"]["1"]["blocks_reached"] == 6


def _adversarial_spec():
    return ScenarioSpec(
        name="tiny-adversarial",
        description="adversaries + churn for the sharded-equality property",
        gossip=EnhancedGossipConfig.paper_f4,
        n_peers=12,
        workload=WorkloadSpec(blocks=3, idle_tail=2.0, grace_period=60.0),
        faults=(
            AdversaryEvent(kind="lazy", regular_slice=(7, 9), drop_prob=0.5),
            AdversaryEvent(kind="digest-liar", at=1.0, until=3.0, regular_slice=(9, 10)),
            JoinEvent(at=1.5, regular_slice=(5, 6)),
            LeaveEvent(at=2.5, regular_slice=(6, 7)),
        ),
    )


def test_sharded_matches_single_with_adversaries_and_churn():
    spec = _adversarial_spec()
    single = run_scenario(spec, seed=2).snapshot()
    sharded_run = run_scenario_sharded(spec, seed=2, shards=3, mode="inline")
    assert sharded_run.plan.shards == 3  # nothing forced single-process
    sharded = sharded_run.snapshot()
    for key, value in single.items():
        if key == "events_executed":
            continue
        assert sharded[key] == value, key


@pytest.mark.parametrize("name", ["flaky-links", "eclipse-attempt"])
def test_registered_adversarial_scenarios_shard_bitforbit(name):
    single = run_scenario(name, seed=1).snapshot()
    sharded = run_scenario_sharded(name, seed=1, shards=4, mode="inline").snapshot()
    for key, value in single.items():
        if key == "events_executed":
            continue
        assert sharded[key] == value, key
