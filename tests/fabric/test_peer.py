"""Unit/integration tests for the Fabric peer."""

import pytest

from repro.fabric.chaincode import CounterIncrementChaincode
from repro.fabric.config import PeerConfig, ValidationMode
from repro.fabric.messages import EndorsementRequest, EndorsementResponse, OrdererBlock
from repro.fabric.peer import Peer
from repro.gossip.config import OriginalGossipConfig
from repro.gossip.original import OriginalGossip
from repro.gossip.view import OrganizationView
from repro.metrics.conflicts import ConflictTracker
from repro.metrics.latency import DisseminationTracker

from tests.conftest import make_chain, routes_to


def build_peer(
    sim, network, streams, name="peer-0", org_peers=("peer-0", "peer-1", "peer-2"),
    leader="peer-0", config=None,
):
    from repro.crypto.identity import Identity

    identity = Identity(name, "org0", "peer")
    view = OrganizationView(name, list(org_peers), list(org_peers), leader)
    tracker = DisseminationTracker()
    conflicts = ConflictTracker()
    peer = Peer(
        sim, network, streams, identity, view,
        config=config or PeerConfig(per_tx_validation_time=0.001),
        tracker=tracker, conflicts=conflicts,
    )
    peer.attach_gossip(lambda host, v: OriginalGossip(host, v, OriginalGossipConfig(t_push=0.0)))
    return peer


def register_stub_peers(network, names):
    inboxes = {}
    for name in names:
        inboxes[name] = []
        network.register(name, routes_to(lambda src, msg, n=name: inboxes[n].append((src, msg))))
    return inboxes


def test_requires_gossip_before_start(sim, network, streams):
    from repro.crypto.identity import Identity

    identity = Identity("peer-9", "org0", "peer")
    view = OrganizationView("peer-9", ["peer-9", "x"], ["peer-9", "x"], "peer-9")
    peer = Peer(sim, network, streams, identity, view)
    with pytest.raises(RuntimeError):
        peer.start()


def test_attach_gossip_twice_rejected(sim, network, streams):
    peer = build_peer(sim, network, streams)
    with pytest.raises(RuntimeError):
        peer.attach_gossip(lambda host, v: None)


def test_deliver_block_dedupes(sim, network, streams):
    peer = build_peer(sim, network, streams)
    block = make_chain([1])[0]
    assert peer.deliver_block(block, "push")
    assert not peer.deliver_block(block, "pull")
    assert peer.blocks_received_via["push"] == 1
    assert peer.blocks_received_via["pull"] == 0


def test_blocks_commit_in_order_with_validation_delay(sim, network, streams):
    peer = build_peer(sim, network, streams)
    blocks = make_chain([2, 2])
    peer.deliver_block(blocks[1], "push")  # out of order
    sim.run(until=1.0)
    assert peer.ledger_height == 0
    peer.deliver_block(blocks[0], "push")
    sim.run(until=1.1)
    assert peer.ledger_height == 2
    assert peer.blockchain.verify_committed_chain()


def test_commit_time_scales_with_tx_count(sim, network, streams):
    config = PeerConfig(per_tx_validation_time=0.1, validation_mode=ValidationMode.DELAY_ONLY)
    peer = build_peer(sim, network, streams, config=config)
    block = make_chain([5])[0]
    peer.deliver_block(block, "push")
    sim.run(until=0.49)
    assert peer.ledger_height == 0
    sim.run(until=0.51)
    assert peer.ledger_height == 1


def test_leader_gossips_orderer_block(sim, network, streams):
    inboxes = register_stub_peers(network, ["peer-1", "peer-2"])
    peer = build_peer(sim, network, streams, name="peer-0", leader="peer-0")
    network.register("orderer", routes_to(lambda src, msg: None))
    block = make_chain([1])[0]
    network.send("orderer", "peer-0", OrdererBlock(block))
    sim.run(until=1.0)
    pushed = [msg for inbox in inboxes.values() for _, msg in inbox]
    assert pushed  # fout=3 clamped to the 2 other peers
    assert peer.tracker is not None
    assert peer.blocks_received_via["orderer"] == 1


def test_leadership_is_the_views_static_leader():
    from repro.experiments.builders import build_network

    net = build_network(n_peers=9, gossip=OriginalGossipConfig(), seed=2, organizations=3)
    for org, members in net.org_members.items():
        leaders = [name for name in members if net.peers[name].is_leader]
        assert leaders == [net.leaders[org]]
        assert all(net.peers[name].is_leader == net.peers[name].view.is_leader for name in members)
    assert net.orderer.org_leaders == net.leaders


def test_orderer_blocks_reach_only_the_static_leaders():
    from repro.experiments.builders import build_network
    from tests.conftest import make_transactions

    net = build_network(n_peers=12, gossip=OriginalGossipConfig(), seed=2, organizations=2)
    net.start()
    net.orderer.emit_block(make_transactions(2))
    net.run_until(lambda: net.all_peers_received(1), step=1.0, max_time=30.0)
    leaders = set(net.leaders.values())
    for name, peer in net.peers.items():
        assert peer.blocks_received_via["orderer"] == (1 if name in leaders else 0)


def test_a_crashed_leader_is_not_replaced():
    """Leadership is static: while the org's leader is down, no other peer
    takes the orderer's blocks, and the copy sent to the leader is lost."""
    from repro.experiments.builders import build_network
    from tests.conftest import make_transactions

    net = build_network(n_peers=6, gossip=OriginalGossipConfig(), seed=2)
    net.start()
    leader = net.leader_of("org0")
    leader.crash()
    net.orderer.emit_block(make_transactions(2))
    net.sim.run(until=5.0)
    assert net.network.dropped_messages >= 1
    assert [peer.name for peer in net.peers.values() if peer.is_leader] == [leader.name]
    assert all(peer.blocks_received_via["orderer"] == 0 for peer in net.peers.values())
    assert all(peer.get_block(0) is None for peer in net.peers.values())


def test_first_reception_recorded_once(sim, network, streams):
    peer = build_peer(sim, network, streams)
    block = make_chain([1])[0]
    peer.tracker.leader_received(0, 0.0)
    sim.run(until=0.25)
    peer.deliver_block(block, "push")
    sim.run(until=0.75)
    peer.deliver_block(block, "recovery")
    assert peer.tracker.block_latencies(0) == {"peer-0": 0.25}
    assert peer.tracker.coverage(expected_peers=3) == {0: 1}


def test_endorsement_round_trip(sim, network, streams):
    peer = build_peer(sim, network, streams)
    peer.chaincodes.install(CounterIncrementChaincode())
    inbox = []
    network.register("client", routes_to(lambda src, msg: inbox.append(msg)))
    network.send("client", "peer-0", EndorsementRequest("r1", "counter-increment", ("c1",)))
    sim.run(until=1.0)
    assert len(inbox) == 1
    response = inbox[0]
    assert isinstance(response, EndorsementResponse)
    assert response.request_id == "r1"
    assert response.rwset.writes == (("c1", 1),)
    assert response.endorsement.endorser == "peer-0"


def test_unknown_chaincode_not_endorsed(sim, network, streams):
    peer = build_peer(sim, network, streams)
    inbox = []
    network.register("client", routes_to(lambda src, msg: inbox.append(msg)))
    network.send("client", "peer-0", EndorsementRequest("r1", "missing", ()))
    sim.run(until=1.0)
    assert inbox == []


def test_endorsement_uses_committed_state(sim, network, streams):
    """An endorser behind the chain tip simulates over stale values."""
    peer = build_peer(sim, network, streams, config=PeerConfig(per_tx_validation_time=0.0))
    peer.chaincodes.install(CounterIncrementChaincode())
    peer.policy = __import__("repro.fabric.endorsement", fromlist=["EndorsementPolicy"]).EndorsementPolicy.any_single()
    inbox = []
    network.register("client", routes_to(lambda src, msg: inbox.append(msg)))
    network.send("client", "peer-0", EndorsementRequest("r1", "counter-increment", ("c1",)))
    sim.run(until=1.0)
    assert inbox[0].rwset.writes == (("c1", 1),)  # state still empty


def test_crash_stops_processing(sim, network, streams):
    peer = build_peer(sim, network, streams)
    peer.start()
    peer.crash()
    block = make_chain([1])[0]
    network.register("other", routes_to(lambda src, msg: None))
    from repro.gossip.messages import BlockPush

    network.send("other", "peer-0", BlockPush(block))
    sim.run(until=1.0)
    assert peer.ledger_height == 0
    assert not peer.alive


def test_recover_resumes_and_catches_up_pipeline(sim, network, streams):
    peer = build_peer(sim, network, streams)
    peer.start()
    peer.crash()
    peer.recover()
    assert peer.alive
    block = make_chain([1])[0]
    peer.deliver_block(block, "recovery")
    sim.run(until=1.0)
    assert peer.ledger_height == 1


def test_full_validation_counts_conflicts(sim, network, streams):
    from repro.fabric.validation import validate_block  # noqa: F401 (context)
    from repro.crypto.identity import Identity
    from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
    from repro.ledger.transaction import Endorsement, TransactionProposal

    config = PeerConfig(per_tx_validation_time=0.0, validation_mode=ValidationMode.FULL)
    peer = build_peer(sim, network, streams, config=config)
    endorser = Identity("e0", "org0", "peer")
    chaincode = CounterIncrementChaincode()
    rwset = chaincode.simulate(peer.state, ("c1",))
    proposals = [
        TransactionProposal(
            tx_id=f"t{i}", client="c", chaincode_id="cc", args=("c1",),
            rwset=rwset, endorsements=[Endorsement.create(endorser, rwset)],
        )
        for i in range(2)
    ]
    block = Block.create(0, GENESIS_PREVIOUS_HASH, proposals)
    peer.deliver_block(block, "push")
    sim.run(until=1.0)
    assert peer.conflicts.invalidated_transactions == 1
    assert peer.state.get_value("c1") == 1  # the valid one wrote, the other did not


@pytest.mark.parametrize("mode", list(ValidationMode))
def test_a_commit_checks_the_block_once(sim, network, streams, mode):
    """Sequence, linkage and data hash are checked once per commit, in
    every validation mode: before the state write, not again after it."""
    from unittest import mock

    from repro.ledger.chain import Blockchain

    checked = []
    check_next = Blockchain.check_next

    def counting(chain, block):
        checked.append(block.number)
        check_next(chain, block)

    config = PeerConfig(per_tx_validation_time=0.0, validation_mode=mode)
    peer = build_peer(sim, network, streams, config=config)
    with mock.patch.object(Blockchain, "check_next", counting):
        for block in reversed(make_chain([1, 1, 1])):
            peer.deliver_block(block, "push")
        sim.run(until=1.0)
    assert peer.ledger_height == 3
    assert checked == [0, 1, 2]


def test_refused_block_leaves_the_world_state_untouched(sim, network, streams):
    """A block the chain refuses (tampered, mis-linked, out of order) must
    not have been validated into the state first."""
    from repro.crypto.identity import Identity
    from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
    from repro.ledger.chain import ChainError
    from repro.ledger.transaction import Endorsement, TransactionProposal

    config = PeerConfig(per_tx_validation_time=0.0, validation_mode=ValidationMode.FULL)
    peer = build_peer(sim, network, streams, config=config)
    endorser = Identity("e0", "org0", "peer")

    def increment(key, tx_id):
        rwset = CounterIncrementChaincode().simulate(peer.state, (key,))
        return TransactionProposal(
            tx_id=tx_id, client="c", chaincode_id="cc", args=(key,),
            rwset=rwset, endorsements=[Endorsement.create(endorser, rwset)],
        )

    genesis = Block.create(0, GENESIS_PREVIOUS_HASH, [increment("c1", "t0")])
    peer.deliver_block(genesis, "push")
    sim.run(until=1.0)
    assert peer.ledger_height == 1
    before = (peer.state.snapshot_values(), peer.state.writes_applied, peer.state.state_tag)
    assert before[0] == {"c1": 1} and before[2] is not None

    tampered = Block.create(1, genesis.block_hash, [increment("c1", "t1")])
    tampered.transactions.append(increment("c2", "t2"))
    mislinked = Block.create(1, "f" * 64, [increment("c1", "t3")])
    out_of_order = Block.create(2, genesis.block_hash, [increment("c1", "t4")])
    for refused in (tampered, mislinked, out_of_order):
        with pytest.raises(ChainError):
            peer._commit(refused)
        assert (peer.state.snapshot_values(), peer.state.writes_applied) == before[:2]
        assert peer.state.state_tag is before[2]
        assert peer.ledger_height == 1
