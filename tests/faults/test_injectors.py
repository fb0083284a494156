"""Unit/integration tests for fault injection."""

import pytest

from repro.faults.adversaries import LazyForwarderFault
from repro.faults.injectors import CrashSchedule, LinkDegradeFault, TeasingPeerFault
from repro.gossip.messages import BlockPush, PullBlockResponse, PushDigest, PushRequest
from repro.net.latency import ConstantLatency
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation.random import RandomStreams

from tests.conftest import make_chain, routes_to


def make_net(sim):
    network = Network(sim, RandomStreams(1), NetworkConfig(latency=ConstantLatency(0.001)))
    inboxes = {}
    for name in ("a", "b", "c"):
        inboxes[name] = []
        network.register(name, routes_to(lambda src, msg, n=name: inboxes[n].append(msg)))
    return network, inboxes


def silent(network, peers):
    """The paper's silent free-rider: a lazy forwarder at drop_prob=1.0."""
    return LazyForwarderFault(network, peers, 1.0, RandomStreams(1))


def test_silent_peer_drops_unsolicited_forwards(sim):
    network, inboxes = make_net(sim)
    fault = silent(network, ["a"])
    block = make_chain([1])[0]
    network.send("a", "b", BlockPush(block))  # unsolicited forward: dropped
    network.send("a", "b", PushDigest(0, block.block_hash, 1))  # advertising: dropped
    network.send("b", "c", BlockPush(block))  # honest peer unaffected
    sim.run()
    assert inboxes["b"] == []
    assert len(inboxes["c"]) == 1
    assert fault.dropped == 2


def test_silent_peer_still_fetches_for_itself(sim):
    """A free-rider wants the ledger: its own requests pass."""
    network, inboxes = make_net(sim)
    silent(network, ["a"])
    network.send("a", "b", PushRequest(0, 1))
    sim.run()
    assert len(inboxes["b"]) == 1


def test_silent_peer_requested_serve_passes(sim):
    """Digest-solicited transfers are not forwarding work."""
    network, inboxes = make_net(sim)
    silent(network, ["a"])
    block = make_chain([1])[0]
    network.send("a", "b", BlockPush(block, counter=2, requested=True))
    sim.run()
    assert len(inboxes["b"]) == 1


def test_teasing_peer_advertises_but_never_delivers(sim):
    network, inboxes = make_net(sim)
    fault = TeasingPeerFault(network, ["a"])
    block = make_chain([1])[0]
    network.send("a", "b", PushDigest(0, block.block_hash, 1))  # advert passes
    network.send("a", "b", BlockPush(block, counter=1, requested=True))  # serve dropped
    network.send("a", "b", BlockPush(block, counter=1))  # forward dropped
    sim.run()
    assert len(inboxes["b"]) == 1
    assert isinstance(inboxes["b"][0], PushDigest)
    assert fault.dropped == 2


def test_silent_peer_still_serves_pull(sim):
    """The adversary hinders push but avoids detection: pull serving works."""
    network, inboxes = make_net(sim)
    silent(network, ["a"])
    block = make_chain([1])[0]
    network.send("a", "b", PullBlockResponse([block]))
    sim.run()
    assert len(inboxes["b"]) == 1


def test_silent_peer_receives_normally(sim):
    network, inboxes = make_net(sim)
    silent(network, ["a"])
    network.send("b", "a", RawMessage(10))
    sim.run()
    assert len(inboxes["a"]) == 1


def test_uniform_loss_zero_rate_lossless(sim):
    network, inboxes = make_net(sim)
    LinkDegradeFault(network, 0.0, RandomStreams(1))
    for _ in range(20):
        network.send("a", "b", RawMessage(1))
    sim.run()
    assert len(inboxes["b"]) == 20


def test_uniform_loss_rate_approximate(sim):
    network, inboxes = make_net(sim)
    fault = LinkDegradeFault(network, 0.3, RandomStreams(1))
    for _ in range(1000):
        network.send("a", "b", RawMessage(1))
    sim.run()
    assert 230 <= fault.dropped <= 370
    assert len(inboxes["b"]) == 1000 - fault.dropped


def test_uniform_loss_draws_per_source(sim):
    """Uniform loss keys its draws by sender (``faults:degrade:<src>``):
    a's decisions are the same whether or not b's copies interleave, so
    the fault shards."""
    network, _ = make_net(sim)
    solo = LinkDegradeFault(network, 0.5, RandomStreams(3))
    alone = [solo.drops("a", "c", RawMessage(1)) for _ in range(50)]
    network, _ = make_net(sim)
    mixed = LinkDegradeFault(network, 0.5, RandomStreams(3))
    interleaved = []
    for _ in range(50):
        interleaved.append(mixed.drops("a", "c", RawMessage(1)))
        mixed.drops("b", "c", RawMessage(1))
    assert interleaved == alone and any(alone) and not all(alone)


def test_faults_compose_on_one_network(sim):
    network, inboxes = make_net(sim)
    silent(network, ["a"])
    LinkDegradeFault(network, 0.0, RandomStreams(1))
    block = make_chain([1])[0]
    network.send("a", "b", BlockPush(block))  # dropped by silent fault
    network.send("b", "c", RawMessage(1))  # passes both
    sim.run()
    assert inboxes["b"] == []
    assert len(inboxes["c"]) == 1


def test_crash_schedule_validation(sim):
    class DummyPeer:
        def crash(self):
            pass

        def recover(self):
            pass

    with pytest.raises(ValueError):
        CrashSchedule(DummyPeer(), crash_at=5.0, recover_at=5.0).arm(sim)


def test_crash_schedule_fires_in_order(sim):
    events = []

    class DummyPeer:
        def crash(self):
            events.append(("crash", sim.now))

        def recover(self):
            events.append(("recover", sim.now))

    CrashSchedule(DummyPeer(), crash_at=2.0, recover_at=5.0).arm(sim)
    sim.run()
    assert events == [("crash", 2.0), ("recover", 5.0)]
