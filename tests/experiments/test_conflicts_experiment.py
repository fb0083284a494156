"""Integration tests for the Table II conflict experiment (small scale)."""

import gc
import tracemalloc

import pytest

from repro.experiments.conflicts import ConflictExperimentConfig, run_conflict_experiment
from repro.gossip.config import EnhancedGossipConfig


@pytest.fixture(scope="module")
def small_result():
    config = ConflictExperimentConfig(
        gossip=EnhancedGossipConfig.paper_f4(),
        block_period=0.5,
        n_peers=12,
        keys=5,
        increments_per_key=4,
        tx_rate=10.0,
        per_tx_validation_time=0.01,
        seed=5,
    )
    return run_conflict_experiment(config)


def test_all_transactions_ordered(small_result):
    assert small_result.tx_ordered == 20


def test_conflict_count_matches_ledger_check(small_result):
    """The MVCC counter agrees with the paper's ledger-sum method."""
    assert small_result.invalidated == small_result.invalidated_by_ledger


def test_final_counters_conserve_transactions(small_result):
    applied = sum(small_result.final_counters.values())
    assert applied + small_result.invalidated == 20


def test_all_peers_converge_to_same_state(small_result):
    reference = None
    for peer in small_result.net.peers.values():
        snapshot = {
            key: value for key, value in peer.state.snapshot_values().items()
        }
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_each_block_fully_validated_once_and_replayed_at_the_other_peers(small_result):
    conflicts = small_result.net.conflicts
    peers = len(small_result.net.peers)
    assert conflicts.full_validations == small_result.blocks
    assert conflicts.replayed_validations == small_result.blocks * (peers - 1)
    assert len({peer.state.state_tag for peer in small_result.net.peers.values()}) == 1


def test_blocks_respect_period_sizing(small_result):
    # 10 tx/s with 0.5 s batches => ~5 tx per block.
    assert 3.0 <= small_result.tx_per_block <= 7.0


def test_validation_time_derived(small_result):
    assert small_result.validation_time_per_block == pytest.approx(
        small_result.tx_per_block * 0.01
    )


def test_invalidation_rate_bounded(small_result):
    assert 0.0 <= small_result.invalidation_rate <= 1.0


def test_scaled_config_keeps_100_peers():
    config = ConflictExperimentConfig.scaled()
    assert config.n_peers == 100
    assert config.total_transactions < 10_000


def _committed_tx_ids(result):
    chain = result.net.peers[result.net.regular_peers()[0]].blockchain
    return [tx.tx_id for block in chain.committed_blocks() for tx in block.transactions]


def test_a_second_run_of_a_seed_names_its_transactions_alike():
    """Clients count their requests and transactions themselves, so a run
    names them the same whatever ran before it in the process."""
    config = ConflictExperimentConfig(
        gossip=EnhancedGossipConfig.paper_f4(), block_period=0.5, n_peers=8, keys=3,
        increments_per_key=2, tx_rate=10.0, per_tx_validation_time=0.01, seed=2,
    )
    first = _committed_tx_ids(run_conflict_experiment(config))
    assert first == [f"tx-client-0-{index}" for index in range(6)]
    assert _committed_tx_ids(run_conflict_experiment(config)) == first


# Where a committed transaction's records are allocated: its proposal,
# endorsement, read/write set and digest, the versions validation stamps,
# and the generated constructors of the tuple records.
_TX_PATH = ("*/repro/ledger/*", "*/repro/fabric/*", "*/repro/crypto/*", "<string>")


def _tx_path_bytes_after_run(increments_per_key):
    gc.collect()
    tracemalloc.start()
    try:
        result = run_conflict_experiment(
            ConflictExperimentConfig.scaled(increments_per_key=increments_per_key)
        )
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, pattern) for pattern in _TX_PATH]
        )
        live = sum(stat.size for stat in snapshot.statistics("filename"))
    finally:
        tracemalloc.stop()
    return result.tx_ordered, live


def test_a_committed_transaction_holds_few_bytes():
    """What the transaction path keeps grows by <= 1,100 B per committed
    transaction of a scaled Table II cell (200 -> 600 transactions): a
    slotted proposal, endorsement and read/write set whose reads and
    writes are tuples of pairs, a tuple of endorsements and tuple
    versions, against ~1,230 B with a dict behind each record. It measures
    ~950 B; the rest is the digest, the tx id and the chain's list slot of
    each block at each peer. Only the transaction path is counted: the
    random streams' one-off promotions would read as growth."""
    short_count, short_bytes = _tx_path_bytes_after_run(10)
    long_count, long_bytes = _tx_path_bytes_after_run(30)
    assert long_count - short_count >= 350
    assert (long_bytes - short_bytes) / (long_count - short_count) <= 1_100
