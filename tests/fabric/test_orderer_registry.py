"""Tests for orderer routing through the static leader map: every finalized
block goes, once, to the leader the deployment named for each organization."""

from repro.fabric.config import OrdererConfig
from repro.fabric.orderer import OrderingService

from tests.conftest import make_transactions, routes_to


def collect(network, name):
    inbox = []
    network.register(name, routes_to(lambda src, msg: inbox.append(msg)))
    return inbox


def test_without_registry_static_map_used(sim, network, streams):
    leader = collect(network, "leader")
    orderer = OrderingService(
        sim, network, streams,
        config=OrdererConfig(consensus_delay=0.0),
        org_leaders={"org0": "leader"},
    )
    orderer.emit_block(make_transactions(1))
    sim.run(until=1.0)
    assert len(leader) == 1


def test_a_peer_outside_the_map_never_hears_the_orderer(sim, network, streams):
    leader = collect(network, "leader")
    bystander = collect(network, "bystander")
    orderer = OrderingService(
        sim, network, streams,
        config=OrdererConfig(consensus_delay=0.0),
        org_leaders={"org0": "leader"},
    )
    for count in (1, 2, 3):
        orderer.emit_block(make_transactions(count))
    sim.run(until=1.0)
    assert [message.block.number for message in leader] == [0, 1, 2]
    assert bystander == []


def test_an_empty_map_seals_blocks_and_sends_none(sim, network, streams):
    orderer = OrderingService(
        sim, network, streams, config=OrdererConfig(consensus_delay=0.0)
    )
    orderer.emit_block(make_transactions(1))
    sim.run(until=1.0)
    assert orderer.blocks_cut == 1
    assert network.monitor.nodes() == []
