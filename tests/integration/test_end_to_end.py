"""End-to-end integration: full client → endorse → order → gossip →
validate pipeline, plus crash/recovery and adversarial scenarios."""


from repro.experiments.builders import build_network
from repro.experiments.conflicts import ConflictExperimentConfig, run_conflict_experiment
from repro.faults.adversaries import LazyForwarderFault
from repro.faults.injectors import CrashSchedule
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig

from tests.conftest import make_transactions


def test_full_transaction_pipeline_applies_increments():
    """20 sequential increments of one counter, all valid (rate slow enough
    for each to commit before the next endorsement)."""
    config = ConflictExperimentConfig(
        gossip=EnhancedGossipConfig.paper_f4(),
        block_period=0.3,
        n_peers=8,
        keys=1,
        increments_per_key=20,
        tx_rate=1.0,
        per_tx_validation_time=0.005,
        seed=8,
    )
    result = run_conflict_experiment(config)
    assert result.tx_ordered == 20
    assert result.invalidated == 0
    assert result.final_counters == {"counter-0": 20}


def test_high_rate_on_one_key_causes_conflicts():
    """Increments racing faster than commit latency must conflict."""
    config = ConflictExperimentConfig(
        gossip=EnhancedGossipConfig.paper_f4(),
        block_period=0.5,
        n_peers=8,
        keys=1,
        increments_per_key=30,
        tx_rate=20.0,  # ~10 endorsements per block period
        per_tx_validation_time=0.01,
        seed=8,
    )
    result = run_conflict_experiment(config)
    assert result.invalidated > 5
    assert result.invalidated == result.invalidated_by_ledger


def test_crashed_peer_catches_up_via_recovery():
    net = build_network(n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    net.start()
    victim = net.peers["peer-5"]
    CrashSchedule(victim, crash_at=1.0, recover_at=8.0).arm(net.sim)
    transactions = make_transactions(3)
    for index in range(6):
        net.sim.schedule_at(0.5 + index, net.orderer.emit_block, transactions)
    net.run_until(
        lambda: all(p.ledger_height >= 6 for p in net.peers.values()),
        step=1.0,
        max_time=60.0,
    )
    assert victim.ledger_height == 6
    assert victim.blockchain.verify_committed_chain()
    assert victim.blocks_received_via["recovery"] > 0


def test_silent_peers_slow_but_do_not_stop_dissemination():
    net = build_network(n_peers=20, gossip=EnhancedGossipConfig.paper_f4(), seed=4)
    silent = [f"peer-{i}" for i in range(1, 5)]  # 20% adversarial
    LazyForwarderFault(net.network, silent, 1.0, net.streams)
    net.start()
    net.orderer.emit_block(make_transactions(2))
    net.run_until(
        lambda: all(p.blockchain.max_known_number() >= 0 for p in net.peers.values()),
        step=1.0,
        max_time=60.0,
    )
    assert all(p.blockchain.has_block(0) for p in net.peers.values())


def test_multi_org_dissemination_via_per_org_leaders():
    net = build_network(
        n_peers=12, gossip=OriginalGossipConfig(t_push=0.0), organizations=3, seed=5
    )
    net.start()
    net.orderer.emit_block(make_transactions(2))
    net.run_until(
        lambda: all(p.blockchain.has_block(0) for p in net.peers.values()),
        step=1.0,
        max_time=30.0,
    )
    # Each org leader received the block directly from the orderer.
    for org, leader in net.leaders.items():
        assert net.peers[leader].blocks_received_via["orderer"] == 1


def test_gossip_stays_within_organization():
    """Block push traffic never crosses organization boundaries. The
    observer wraps ``send`` and ``multicast`` both (a fanout never goes
    through ``send``) and must see push traffic, or it checked nothing."""
    from repro.gossip.messages import BlockPush, PushDigest, PushRequest

    net = build_network(
        n_peers=10, gossip=EnhancedGossipConfig.paper_f4(), organizations=2, seed=6
    )
    org_of = {name: org for org, members in net.org_members.items() for name in members}
    violations = []
    seen = []

    def check(src, dst, message):
        if isinstance(message, (BlockPush, PushDigest, PushRequest)):
            seen.append(message.kind)
            if src in org_of and dst in org_of and org_of[src] != org_of[dst]:
                violations.append((src, dst, message.kind))

    original_send = net.network.send
    original_multicast = net.network.multicast

    def checked_send(src, dst, message):
        check(src, dst, message)
        original_send(src, dst, message)

    def checked_multicast(src, dsts, message):
        for dst in dsts:
            check(src, dst, message)
        original_multicast(src, dsts, message)

    net.network.send = checked_send
    net.network.multicast = checked_multicast
    net.start()
    net.orderer.emit_block(make_transactions(2))
    net.run_until(
        lambda: all(p.blockchain.has_block(0) for p in net.peers.values()),
        step=1.0,
        max_time=30.0,
    )
    assert violations == []
    assert "BlockPush" in seen


def test_all_peers_reach_identical_chains():
    net = build_network(n_peers=10, gossip=OriginalGossipConfig(), seed=7)
    net.start()
    transactions = make_transactions(2)
    for index in range(4):
        net.sim.schedule_at(0.5 * (index + 1), net.orderer.emit_block, transactions)
    net.run_until(
        lambda: all(p.ledger_height >= 4 for p in net.peers.values()),
        step=1.0,
        max_time=60.0,
    )
    tips = {p.blockchain.tip_hash() for p in net.peers.values()}
    assert len(tips) == 1
