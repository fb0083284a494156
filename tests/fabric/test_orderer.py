"""Unit tests for the ordering service (block cutting, consensus delay)."""

import pytest

from repro.fabric.config import OrdererConfig
from repro.fabric.messages import SubmitTransaction
from repro.fabric.orderer import OrderingService
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import TransactionProposal

from tests.conftest import make_transactions, routes_to


def make_orderer(sim, network, streams, max_tx=3, timeout=2.0, consensus=0.0, leaders=None):
    config = OrdererConfig(max_tx_per_block=max_tx, batch_timeout=timeout, consensus_delay=consensus)
    return OrderingService(sim, network, streams, config=config, org_leaders=leaders or {})


def leader_inbox(network, name="leader"):
    inbox = []
    network.register(name, routes_to(lambda src, msg: inbox.append(msg)))
    return inbox


def proposal(tx_id="t"):
    return TransactionProposal(
        tx_id=tx_id, client="c", chaincode_id="cc", args=(), rwset=ReadWriteSet()
    )


def test_block_cut_at_max_size(sim, network, streams):
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=3, leaders={"org0": "leader"})
    for index in range(3):
        orderer.submit(proposal(f"t{index}"))
    sim.run()
    assert orderer.blocks_cut == 1
    assert len(inbox) == 1
    assert inbox[0].block.tx_count == 3


def test_block_cut_at_timeout(sim, network, streams):
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=50, timeout=2.0, leaders={"org0": "leader"})
    orderer.submit(proposal())
    sim.run(until=1.9)
    assert orderer.blocks_cut == 0
    sim.run(until=2.1)
    assert orderer.blocks_cut == 1
    assert inbox[0].block.tx_count == 1


def test_timeout_counts_from_first_tx_of_batch(sim, network, streams):
    leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=50, timeout=2.0)
    sim.schedule(1.0, orderer.submit, proposal("t0"))
    sim.schedule(2.5, orderer.submit, proposal("t1"))
    sim.run(until=2.9)
    assert orderer.blocks_cut == 0  # timer expires at 1.0 + 2.0 = 3.0
    sim.run(until=3.1)
    assert orderer.blocks_cut == 1


def test_size_cut_leaves_its_timeout_a_no_op(sim, network, streams):
    leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=2, timeout=2.0)
    orderer.submit(proposal("t0"))
    orderer.submit(proposal("t1"))  # size cut at t=0
    sim.run(until=5.0)
    assert orderer.blocks_cut == 1  # timer must not cut an empty block


def test_timeout_of_a_size_cut_batch_does_not_cut_the_next_batch(sim, network, streams):
    """The first batch is cut by size at t=0 with its timeout (t=2.0)
    pending; the next batch opens at t=1.0 and must wait for its own
    timeout at t=3.0. A timeout that checked "buffer non-empty" instead of
    its batch number would cut it at t=2.0."""
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=2, timeout=2.0, leaders={"o": "leader"})
    orderer.submit(proposal("t0"))
    orderer.submit(proposal("t1"))  # size cut at t=0, its timeout pending at t=2.0
    sim.schedule_at(1.0, orderer.submit, proposal("t2"))
    sim.run(until=5.0)
    assert [(m.block.tx_count, m.block.cut_at) for m in inbox] == [(2, 0.0), (1, 3.0)]



def test_a_stale_timeout_at_the_instant_a_new_batch_opens_does_not_cut_it(sim, network, streams):
    """The next batch opens at t=2.0, the same instant as the size-cut
    batch's timeout, and its submit runs first (lower seq). The stale
    timeout then finds a one-transaction buffer but a newer batch number,
    so the batch waits for its own timeout at t=4.0."""
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=2, timeout=2.0, leaders={"o": "leader"})
    sim.schedule_at(2.0, orderer.submit, proposal("t2"))
    orderer.submit(proposal("t0"))
    orderer.submit(proposal("t1"))  # size cut at t=0, its timeout pending at t=2.0
    sim.run(until=3.9)
    assert orderer.blocks_cut == 1 and orderer.pending_transactions == 1
    sim.run(until=5.0)
    assert [(m.block.tx_count, m.block.cut_at) for m in inbox] == [(2, 0.0), (1, 4.0)]

def test_a_timeout_cut_opens_a_batch_with_its_own_timeout(sim, network, streams):
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=50, timeout=2.0, leaders={"o": "leader"})
    orderer.submit(proposal("t0"))
    sim.schedule_at(2.5, orderer.submit, proposal("t1"))
    sim.run(until=10.0)
    assert [m.block.cut_at for m in inbox] == [2.0, 4.5]
    assert orderer.pending_transactions == 0


def test_a_sealed_emit_block_leaves_the_batch_timeout_armed(sim, network, streams):
    """The timeout keys on batches cut, not on block numbers: a block the
    direct driver seals meanwhile does not make the batch's timeout moot."""
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=50, timeout=2.0, leaders={"o": "leader"})
    orderer.submit(proposal("t0"))
    sim.schedule_at(1.0, orderer.emit_block, make_transactions(3))
    sim.run(until=5.0)
    blocks = [(m.block.number, m.block.tx_count, m.block.cut_at) for m in inbox]
    assert blocks == [(0, 3, 1.0), (1, 1, 2.0)]


def test_the_moot_timeout_of_a_size_cut_fires_as_a_no_op(sim, network, streams):
    leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=2, timeout=2.0, leaders={"o": "leader"})
    orderer.submit(proposal("t0"))
    orderer.submit(proposal("t1"))
    assert sim.run() == 2.0  # the last event is the timeout, and it ran
    assert orderer.blocks_cut == 1
    assert sim.pending_events == 0


def test_single_transaction_blocks_arm_no_timeout(sim, network, streams):
    orderer = make_orderer(sim, network, streams, max_tx=1, timeout=2.0)
    orderer.submit(proposal())
    assert orderer.blocks_cut == 1
    assert sim.pending_events == 1  # the consensus one-shot only


def test_blocks_linked_in_sequence(sim, network, streams):
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=1, leaders={"org0": "leader"})
    for index in range(3):
        orderer.submit(proposal(f"t{index}"))
    sim.run()
    numbers = [msg.block.number for msg in inbox]
    assert numbers == [0, 1, 2]
    assert inbox[1].block.header.previous_hash == inbox[0].block.block_hash


def test_consensus_delay_before_delivery(sim, network, streams):
    times = []
    network.register("leader", routes_to(lambda src, msg: times.append(sim.now)))
    orderer = make_orderer(sim, network, streams, max_tx=1, consensus=0.5, leaders={"org0": "leader"})
    orderer.submit(proposal())
    sim.run()
    assert times[0] >= 0.5


def test_multi_org_leaders_each_receive_block(sim, network, streams):
    inbox_a = leader_inbox(network, "leader-a")
    inbox_b = leader_inbox(network, "leader-b")
    orderer = make_orderer(
        sim, network, streams, max_tx=1, leaders={"org0": "leader-a", "org1": "leader-b"}
    )
    orderer.submit(proposal())
    sim.run()
    assert len(inbox_a) == len(inbox_b) == 1
    assert inbox_a[0].block.number == inbox_b[0].block.number == 0


def test_submit_via_network_message(sim, network, streams):
    leader_inbox(network)
    network.register("client", routes_to(lambda src, msg: None))
    orderer = make_orderer(sim, network, streams, max_tx=1, leaders={"org0": "leader"})
    network.send("client", orderer.name, SubmitTransaction(proposal()))
    sim.run()
    assert orderer.transactions_ordered == 1
    assert orderer.blocks_cut == 1


def test_emit_block_direct_driver(sim, network, streams):
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, leaders={"org0": "leader"})
    block = orderer.emit_block(make_transactions(5))
    sim.run()
    assert block.tx_count == 5
    assert len(inbox) == 1
    second = orderer.emit_block(make_transactions(2))
    assert second.number == 1
    assert second.header.previous_hash == block.block_hash


def test_cut_and_emit_block_extend_one_chain(sim, network, streams):
    """A size cut and the direct driver seal through the same path: one
    numbering, one hash chain, one ``blocks_cut`` count."""
    inbox = leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=1, leaders={"org0": "leader"})
    orderer.submit(proposal("t0"))
    orderer.emit_block(make_transactions(2))
    orderer.submit(proposal("t1"))
    sim.run()
    blocks = [message.block for message in inbox]
    assert [block.number for block in blocks] == [0, 1, 2]
    assert [block.tx_count for block in blocks] == [1, 2, 1]
    for previous, block in zip(blocks, blocks[1:]):
        assert block.header.previous_hash == previous.block_hash
    assert orderer.blocks_cut == 3


def test_both_seal_paths_record_the_cut_before_consensus(sim, network, streams):
    from repro.metrics.latency import DisseminationTracker

    tracker = DisseminationTracker()
    network.register(
        "leader", routes_to(lambda src, msg: tracker.leader_received(msg.block.number, sim.now))
    )
    config = OrdererConfig(max_tx_per_block=1, batch_timeout=2.0, consensus_delay=0.5)
    orderer = OrderingService(
        sim, network, streams, config=config, org_leaders={"org0": "leader"}, tracker=tracker
    )
    sim.schedule(1.0, orderer.submit, proposal("t0"))
    sim.schedule(2.0, orderer.emit_block, make_transactions(3))
    sim.run()
    assert tracker.blocks() == [0, 1]
    for number in (0, 1):
        # The consensus delay plus one small transfer: cut at seal time.
        assert 0.5 <= tracker.orderer_to_leader_delay(number) < 0.6


def test_orderer_never_validates(sim, network, streams):
    """Orderers accept proposals without endorsements (paper §II-B)."""
    leader_inbox(network)
    orderer = make_orderer(sim, network, streams, max_tx=1, leaders={"org0": "leader"})
    bogus = proposal()
    assert bogus.endorsements == ()
    orderer.submit(bogus)
    sim.run()
    assert orderer.blocks_cut == 1


def test_orderer_config_validation():
    with pytest.raises(ValueError):
        OrdererConfig(max_tx_per_block=0)
    with pytest.raises(ValueError):
        OrdererConfig(batch_timeout=0)
