"""End-of-run invariants on every registered scenario at its first seed."""

import gc

import pytest

from repro.gossip.push_infect_contagion import _Missing
from repro.ledger.block import Block
from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.scenarios.invariants import violations


@pytest.mark.parametrize("name", scenario_names())
def test_a_registered_scenario_ends_with_every_invariant_holding(name):
    # A run makes no cyclic garbage, which is what lets the run owner keep
    # the collector off through its loop (repro.simulation.collector).
    # Off around the whole call, so no automatic pass after the run's own
    # scope can free what it left before the count.
    gc.collect()
    gc.disable()
    try:
        run = run_scenario(name, seed=get_scenario(name).seeds[0])
        left = gc.collect()
    finally:
        gc.enable()
    assert violations(run) == []
    assert left == 0


def test_each_violation_names_the_peer():
    """Both invariants are live: a digest record kept for a held block
    and a block held without a first reception are each reported."""
    run = run_scenario("digest-liars", seed=1)
    peer = next(peer for peer in run.result.net.peers.values() if peer.get_block(0))
    peer.gossip.push._missing = {0: _Missing()}
    extra = peer.blockchain.max_known_number() + 3
    peer.blockchain.receive(Block.create(extra, "0" * 64, []))  # behind the tracker's back
    assert violations(run) == [
        f"{peer.name} holds blocks {[*range(extra - 2), extra]} but first received "
        f"{[*range(extra - 2)]}",
        f"{peer.name} keeps digest state for blocks it holds: [0]",
    ]


def test_the_tracker_and_the_chains_are_compared_both_ways():
    """A reception recorded for a name no peer has, and a block that
    differs from its peers' under the same number, are each reported; the
    forged block also breaks its holder's committed chain."""
    run = run_scenario("digest-liars", seed=1)
    peers = run.result.net.peers
    second_holder = sorted(name for name, peer in peers.items() if peer.get_block(0))[1]
    peers[second_holder].blockchain._blocks[0] = Block.create(0, "f" * 64, [])
    run.result.tracker.first_reception("peer-ghost", 0, 1.0)
    assert violations(run) == [
        "peer-ghost is no peer of the run but first received [0]",
        f"{second_holder} holds other blocks than its peers under numbers [0]",
        f"{second_holder}'s committed chain does not link",
    ]
