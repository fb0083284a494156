"""Unit tests for the byzantine adversary arsenal.

Behavior-level coverage for :mod:`repro.faults.adversaries`: lazy
forwarders interpolate between honest and silent, digest liars re-advertise
and never serve, eclipse coalitions isolate their victim symmetrically,
and flaky links drop exactly one direction. Scenario-level composition
(and the sharded identity) lives in tests/scenarios/.
"""

import pytest

from repro.experiments.builders import build_network
from repro.faults.adversaries import (
    DigestLiarFault,
    EclipseFault,
    FlakyLinkFault,
    LazyForwarderFault,
)
from repro.fabric.peer import Peer, route_table
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.gossip.enhanced import EnhancedGossip
from repro.gossip.messages import BlockPush, PushDigest, PushRequest
from repro.net.latency import ConstantLatency
from repro.net.network import Network, NetworkConfig
from repro.simulation.random import RandomStreams

from tests.conftest import make_chain, routes_to


def make_net(sim, nodes=("a", "b", "c")):
    streams = RandomStreams(1)
    network = Network(sim, streams, NetworkConfig(latency=ConstantLatency(0.001)))
    inboxes = {}
    for name in nodes:
        inboxes[name] = []
        network.register(name, routes_to(lambda src, msg, n=name: inboxes[n].append((src, msg))))
    return network, streams, inboxes


# ----- lazy forwarders ------------------------------------------------------


def test_lazy_at_full_probability_matches_silent_semantics(sim):
    network, streams, inboxes = make_net(sim)
    fault = LazyForwarderFault(network, ["a"], 1.0, streams)
    block = make_chain([1])[0]
    network.send("a", "b", PushDigest(0, block.block_hash, 1))  # forwarding: dropped
    network.send("a", "b", BlockPush(block))  # unsolicited forward: dropped
    network.send("a", "b", BlockPush(block, counter=2, requested=True))  # serve passes
    network.send("a", "b", PushRequest(0, 1))  # own fetch passes
    sim.run()
    assert fault.dropped == 2
    kinds = [type(msg).__name__ for _, msg in inboxes["b"]]
    assert sorted(kinds) == ["BlockPush", "PushRequest"]


def test_lazy_at_zero_probability_is_honest(sim):
    network, streams, inboxes = make_net(sim)
    fault = LazyForwarderFault(network, ["a"], 0.0, streams)
    block = make_chain([1])[0]
    network.send("a", "b", PushDigest(0, block.block_hash, 1))
    network.send("a", "b", BlockPush(block))
    sim.run()
    assert fault.dropped == 0
    assert len(inboxes["b"]) == 2


def test_lazy_intermediate_probability_drops_roughly_that_share(sim):
    network, streams, inboxes = make_net(sim)
    fault = LazyForwarderFault(network, ["a"], 0.5, streams)
    block = make_chain([1])[0]
    for _ in range(400):
        network.send("a", "b", PushDigest(0, block.block_hash, 1))
    sim.run()
    assert 140 <= fault.dropped <= 260
    assert len(inboxes["b"]) == 400 - fault.dropped


def test_lazy_draws_come_from_per_source_streams(sim):
    """Two lazy senders consume independent streams: dropping pattern for
    one sender is unchanged by interleaved traffic from the other."""
    network, streams, _ = make_net(sim, nodes=("a", "b", "c"))
    fault = LazyForwarderFault(network, ["a", "b"], 0.5, streams)
    block = make_chain([1])[0]
    digest = PushDigest(0, block.block_hash, 1)
    solo = [fault._predicate("a", "c", digest) for _ in range(50)]

    sim2_network, streams2, _ = make_net(sim, nodes=("a", "b", "c"))
    fault2 = LazyForwarderFault(sim2_network, ["a", "b"], 0.5, streams2)
    interleaved = []
    for _ in range(50):
        interleaved.append(fault2._predicate("a", "c", digest))
        fault2._predicate("b", "c", digest)  # interleaved draws on b's stream
    assert interleaved == solo


def test_lazy_validates_probability(sim):
    network, streams, _ = make_net(sim)
    with pytest.raises(ValueError):
        LazyForwarderFault(network, ["a"], 1.5, streams)


# ----- digest liars ---------------------------------------------------------


def liar_net():
    net = build_network(n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    fault = DigestLiarFault(net.network, net.peers, ["peer-5"], net.streams, lie_fanout=2)
    return net, fault


def test_liar_readvertises_instead_of_requesting():
    net, fault = liar_net()
    block = make_chain([1])[0]
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 1))
    net.sim.run(until=1.0)
    assert fault.lies_told == 1
    liar = net.peers["peer-5"]
    assert liar.gossip.push.requests_sent == 0  # never fetches via push
    assert liar.ledger_height == 0  # and indeed never got the block


def test_liar_rewires_its_own_copy_of_the_route_table():
    """A liar's table is a copy of its class's with the digest route
    replaced, and the peer's routes are the ones the network holds: one
    assignment reaches every delivery to the liar, and leaves every honest
    peer on the shared table."""
    net, fault = liar_net()
    liar = net.peers["peer-5"]
    shared = route_table(EnhancedGossip, Peer)
    table = liar.route_table
    assert table is not shared and net.network._routes["peer-5"][0] is table
    assert all(peer.route_table is shared for name, peer in net.peers.items() if name != "peer-5")
    assert table[PushDigest][1].__name__ == "lying_on_digest"
    assert {**table, PushDigest: shared[PushDigest]} == shared
    block = make_chain([1])[0]
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 1))
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 2))
    net.sim.run(until=0.2)
    assert fault.lies_told == 2 and liar.gossip.push.requests_sent == 0


def test_liar_withholds_requested_serves():
    net, fault = liar_net()
    block = make_chain([1])[0]
    net.network.send("peer-5", "peer-1", BlockPush(block, counter=1, requested=True))
    net.sim.run(until=1.0)
    assert fault.dropped == 1
    assert net.peers["peer-1"].ledger_height == 0


def test_liar_reforms_when_stopped():
    net, fault = liar_net()
    fault.stop()
    block = make_chain([1])[0]
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 1))
    net.sim.run(until=0.4)  # before the first retry-ladder timeout
    assert fault.lies_told == 0
    assert net.peers["peer-5"].gossip.push.requests_sent == 1  # honest handler ran


def test_liar_requires_the_enhanced_module():
    net = build_network(n_peers=4, gossip=OriginalGossipConfig(), seed=3)
    with pytest.raises(ValueError, match="enhanced"):
        DigestLiarFault(net.network, net.peers, ["peer-1"], net.streams)


def test_liar_on_another_shard_is_known_by_name_and_rewired_there_only():
    owned = frozenset({"peer-1", "peer-5", "orderer"})
    net = build_network(
        n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), seed=3, owned=owned
    )
    net.network.enable_shard_egress(owned, [])  # lies to other shards leave
    fault = DigestLiarFault(
        net.network, net.peers, ["peer-5", "peer-6"], net.streams, lie_fanout=2
    )
    block = make_chain([1])[0]
    net.network.send("peer-1", "peer-5", PushDigest(0, block.block_hash, 1))
    net.sim.run(until=1.0)
    assert fault.lies_told == 1
    assert net.peers["peer-5"].gossip.push.requests_sent == 0
    with pytest.raises(ValueError, match="unknown"):
        DigestLiarFault(net.network, net.peers, ["peer-8"], net.streams)


def test_liar_validates_inputs(sim):
    network, streams, _ = make_net(sim)
    with pytest.raises(ValueError, match="unknown"):
        DigestLiarFault(network, {}, ["ghost"], streams)
    with pytest.raises(ValueError, match="fanout"):
        DigestLiarFault(network, {}, [], streams, lie_fanout=-1)


# ----- eclipse --------------------------------------------------------------


def test_eclipse_isolates_victim_from_honest_nodes_both_ways(sim):
    network, streams, inboxes = make_net(sim, nodes=("v", "atk", "honest", "orderer"))
    fault = EclipseFault(network, "v", ["atk"])
    block = make_chain([1])[0]
    network.send("v", "honest", BlockPush(block))      # dropped
    network.send("honest", "v", BlockPush(block))      # dropped
    network.send("v", "atk", BlockPush(block))         # attacker channel open
    network.send("atk", "v", BlockPush(block))         # attacker channel open
    network.send("orderer", "v", BlockPush(block))     # protected by default
    network.send("honest", "atk", BlockPush(block))    # non-victim pair untouched
    sim.run()
    assert fault.dropped == 2
    assert inboxes["honest"] == []
    assert [src for src, _ in inboxes["v"]] == ["atk", "orderer"]
    assert len(inboxes["atk"]) == 2


def test_eclipse_release_restores_connectivity(sim):
    network, streams, inboxes = make_net(sim, nodes=("v", "atk", "honest"))
    fault = EclipseFault(network, "v", ["atk"])
    fault.release()
    network.send("honest", "v", PushRequest(0, 1))
    sim.run()
    assert len(inboxes["v"]) == 1
    assert fault.dropped == 0


def test_eclipse_rejects_victim_as_attacker(sim):
    network, streams, _ = make_net(sim)
    with pytest.raises(ValueError):
        EclipseFault(network, "a", ["a", "b"])


# ----- flaky links ----------------------------------------------------------


def test_flaky_link_is_asymmetric(sim):
    network, streams, inboxes = make_net(sim)
    fault = FlakyLinkFault(network, ["a"], ["b"], 1.0, streams)
    network.send("a", "b", PushRequest(0, 1))  # a -> b drops
    network.send("b", "a", PushRequest(0, 1))  # reverse stays clean
    network.send("a", "c", PushRequest(0, 1))  # unrelated destination clean
    sim.run()
    assert fault.dropped == 1
    assert inboxes["b"] == []
    assert len(inboxes["a"]) == 1
    assert len(inboxes["c"]) == 1


def test_flaky_link_restore_and_validation(sim):
    network, streams, inboxes = make_net(sim)
    fault = FlakyLinkFault(network, ["a"], ["b"], 1.0, streams)
    fault.restore()
    network.send("a", "b", PushRequest(0, 1))
    sim.run()
    assert len(inboxes["b"]) == 1
    with pytest.raises(ValueError):
        FlakyLinkFault(network, ["a"], ["b"], -0.2, streams)
