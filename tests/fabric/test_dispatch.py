"""How a delivery finds its handler: the network's per-node routes (one
class table per protocol class, shared by its peers, and the components
it addresses), the only path a message takes, and what a peer's
lifecycle does to them. Behaviour first: most tests send through
``Network.send`` and look at what the peer did."""

import pytest

from repro.experiments.builders import build_network
from repro.fabric.messages import EndorsementRequest, OrdererBlock
from repro.fabric.peer import Peer, route_table
from repro.faults.adversaries import DigestLiarFault
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.gossip.enhanced import EnhancedGossip
from repro.gossip.messages import (
    BlockPush,
    PullBlockRequest,
    PullBlockResponse,
    PullDigestRequest,
    PullDigestResponse,
    PushDigest,
    PushRequest,
    RecoveryRequest,
    RecoveryResponse,
    StateInfo,
)
from repro.gossip.view import OrganizationView
from repro.net.message import RawMessage
from repro.net.network import NO_ROUTES

from tests.conftest import make_chain, routes_to


def one_of_each(block):
    """An instance of every message class a peer knows a handler for."""
    return [
        BlockPush(block, counter=1),
        PushDigest(0, block.block_hash, 1),
        PushRequest(0, 1),
        PullDigestRequest(),
        PullDigestResponse([0]),
        PullBlockRequest([0]),
        PullBlockResponse([block]),
        StateInfo(1),
        RecoveryRequest(0, 1),
        RecoveryResponse([block]),
        OrdererBlock(block),
        EndorsementRequest("request-1", "counter", ()),
    ]


@pytest.mark.parametrize(
    "gossip", [EnhancedGossipConfig.paper_f4(), OriginalGossipConfig()], ids=["enhanced", "original"]
)
def test_network_delivery_reaches_the_handler_the_table_picks(gossip):
    net = build_network(n_peers=4, gossip=gossip, seed=3)
    peer = net.peers["peer-2"]
    shared = peer.route_table
    messages = [m for m in one_of_each(make_chain([1])[0]) if type(m) in shared]
    assert {type(m) for m in messages} == set(shared), "extend one_of_each()"
    calls = []
    # The peer's own copy, every route replaced, as the fault layer does:
    # the shared table stays with the other peers.
    peer.route_table = {
        message_class: (
            index,
            lambda component, src, message, handler=handler: calls.append(
                (handler, component, src, message)
            ),
        )
        for message_class, (index, handler) in shared.items()
    }
    assert net.peers["peer-1"].route_table is shared
    for message in messages:
        net.network.send("peer-1", "peer-2", message)
    net.sim.run(until=1.0)
    assert len(calls) == len(messages)
    routes = peer._routes
    for handler, component, src, message in calls:
        index, expected = shared[type(message)]
        assert (handler, component, src) == (expected, routes[index], "peer-1")


@pytest.mark.parametrize(
    "gossip", [EnhancedGossipConfig.paper_f4(), OriginalGossipConfig()], ids=["enhanced", "original"]
)
def test_the_peers_of_a_protocol_class_share_one_route_table(gossip):
    """The module class's routes, shifted past the table and the peer and
    completed with the two peer-level classes, are one table that every
    peer of the class probes and the network holds; a peer's own part is
    the tuple of components the table addresses."""
    net = build_network(n_peers=4, gossip=gossip, seed=3)
    table = route_table(type(net.peers["peer-0"].gossip), Peer)
    for name, peer in net.peers.items():
        assert peer.route_table is table
        routes = net.network._routes[name]
        assert routes == (table, peer, *peer.gossip.components())
        assert routes[table[EndorsementRequest][0]] is peer
    assert table[EndorsementRequest] == (1, Peer._on_endorsement_request)
    assert {OrdererBlock, EndorsementRequest} | set(type(peer.gossip).ROUTES) == set(table)


def _tables(net):
    return {id(net.network._routes[name][0]) for name in net.peers}


def test_a_thousand_peers_hold_one_table_per_protocol_class_and_one_per_liar():
    original = build_network(n_peers=1000, gossip=OriginalGossipConfig(), seed=1)
    assert len(original.network._routes) == 1000 + 1  # and the orderer's
    assert len(_tables(original)) == 1
    enhanced = build_network(n_peers=1000, gossip=EnhancedGossipConfig.paper_f4(), seed=1)
    assert len(_tables(enhanced)) == 1
    liars = ["peer-3", "peer-500", "peer-999"]
    DigestLiarFault(enhanced.network, enhanced.peers, liars, enhanced.streams)
    assert len(_tables(enhanced)) == 1 + len(liars)
    shared = route_table(EnhancedGossip, Peer)
    assert [name for name, peer in enhanced.peers.items() if peer.route_table is not shared] == liars


def make_peer(sim, network, streams, name="peer-0"):
    from repro.crypto.identity import Identity

    identity = Identity(name, "org0", "peer")
    members = ["peer-0", "peer-1"]
    return Peer(sim, network, streams, identity, OrganizationView(name, members, members, "peer-0"))


def test_classes_outside_the_table_are_ignored_not_counted():
    net = build_network(n_peers=4, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    leader = next(peer for peer in net.peers.values() if peer.is_leader)
    other = next(name for name in net.peers if name != leader.name)
    # The table misses, so the network ignores it: not a drop.
    net.network.send(other, leader.name, RawMessage(10))
    net.sim.run(until=1.0)
    assert net.network.dropped_messages == 0


def test_a_subclass_of_a_table_class_is_not_dispatched():
    """The table is keyed by exact class: a subclass of ``OrdererBlock``
    misses it and is ignored, like any class outside the table."""
    net = build_network(n_peers=4, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    leader = next(peer for peer in net.peers.values() if peer.is_leader)
    other = next(name for name in net.peers if name != leader.name)

    class WrappedOrdererBlock(OrdererBlock):
        __slots__ = ()

    assert WrappedOrdererBlock not in leader.route_table
    net.network.send(other, leader.name, WrappedOrdererBlock(make_chain([1])[0]))
    net.sim.run(until=1.0)
    assert leader.blocks_received_via["orderer"] == 0
    assert leader.get_block(0) is None
    assert net.network.dropped_messages == 0


def test_a_peer_without_gossip_ignores_what_it_hears(sim, network, streams):
    peer = make_peer(sim, network, streams)
    network.register("peer-1", routes_to(lambda src, message: None))
    assert peer.route_table is None
    block = make_chain([1])[0]
    for message in one_of_each(block):
        network.send("peer-1", "peer-0", message)
    sim.run(until=1.0)
    assert peer.get_block(0) is None
    assert peer.blocks_received_via["orderer"] == 0
    assert network.dropped_messages == 0


def enhanced_peer(sim, network, streams):
    """One enhanced-gossip peer whose only neighbour is a silent stub."""
    peer = make_peer(sim, network, streams)
    peer.attach_gossip(lambda host, view: EnhancedGossip(host, view, EnhancedGossipConfig.paper_f4()))
    network.register("peer-1", routes_to(lambda src, message: None))
    return peer


def test_lifecycle_decides_what_a_peer_hears(sim, network, streams):
    peer = enhanced_peer(sim, network, streams)
    push = peer.gossip.push

    def digest(counter, until):
        network.send("peer-1", "peer-0", PushDigest(0, "hash", counter))
        sim.run(until=until)

    digest(1, 1.0)
    assert push.pairs_received == 1
    # Dead but connected (a churn leave): nothing is handled, nothing is
    # counted as dropped.
    peer.shutdown()
    assert network._routes["peer-0"] is NO_ROUTES  # withdrawn to the shared empty table
    digest(2, 2.0)
    assert (push.pairs_received, network.dropped_messages) == (1, 0)
    peer.restart()
    assert network._routes["peer-0"] is peer._routes  # republished as they were
    digest(3, 3.0)
    assert push.pairs_received == 2
    # Crashed: disconnected as well, so the copy is a counted drop.
    peer.crash()
    digest(4, 4.0)
    assert (push.pairs_received, network.dropped_messages) == (2, 1)
    peer.recover()
    digest(5, 5.0)
    assert (push.pairs_received, network.dropped_messages) == (3, 1)


def test_adversary_still_intercepts_digests_after_crash_and_recover():
    net = build_network(n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    fault = DigestLiarFault(net.network, net.peers, ["peer-5"], net.streams, lie_fanout=2)
    liar = net.peers["peer-5"]
    block = make_chain([1])[0]
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 1))
    net.sim.run(until=0.2)
    assert fault.lies_told == 1
    liar.crash()
    liar.recover()
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 2))
    net.sim.run(until=0.4)
    assert fault.lies_told == 2
    assert liar.gossip.push.requests_sent == 0


def test_set_routes_and_disconnect_reject_unknown_nodes(sim, network):
    with pytest.raises(ValueError, match="ghost"):
        network.set_routes("ghost", ({},))
    with pytest.raises(ValueError, match="ghost"):
        network.set_disconnected("ghost", True)
    with pytest.raises(ValueError, match="ghost"):
        network.set_disconnected("ghost", False)
