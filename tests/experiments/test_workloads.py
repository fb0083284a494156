"""Unit tests for workload generators."""

import random

import pytest

from repro.experiments.workloads import (
    HIGH_THROUGHPUT_CHAINCODE_ID,
    CounterIncrementWorkload,
    synthetic_block_transactions,
)


def test_synthetic_transactions_sized():
    txs = synthetic_block_transactions(50, 3_200)
    assert len(txs) == 50
    assert all(tx.size_bytes == 3_200 for tx in txs)


def test_synthetic_transactions_are_inert_high_throughput_deltas():
    """Each filler transaction names the high-throughput chaincode and
    its own delta row, and carries no reads, writes or endorsements."""
    txs = synthetic_block_transactions(5, 3_200)
    assert HIGH_THROUGHPUT_CHAINCODE_ID == "high-throughput"
    assert {tx.chaincode_id for tx in txs} == {HIGH_THROUGHPUT_CHAINCODE_ID}
    assert [tx.args for tx in txs] == [("asset", 1, index) for index in range(5)]
    assert len({tx.tx_id for tx in txs}) == 5
    assert all(not (tx.rwset.reads or tx.rwset.writes or tx.endorsements) for tx in txs)


def test_synthetic_transactions_validation():
    with pytest.raises(ValueError):
        synthetic_block_transactions(0, 100)
    with pytest.raises(ValueError):
        synthetic_block_transactions(10, 0)


def test_counter_workload_total():
    workload = CounterIncrementWorkload(keys=5, increments_per_key=3, rng=random.Random(1))
    assert workload.total_transactions == 15
    operations = []
    while (op := workload()) is not None:
        operations.append(op)
    assert len(operations) == 15
    assert workload.issued == 15


def test_counter_workload_each_round_is_permutation():
    workload = CounterIncrementWorkload(keys=4, increments_per_key=3, rng=random.Random(2))
    rounds = []
    for _ in range(3):
        rounds.append([workload()[1][0] for _ in range(4)])
    expected = {f"counter-{i}" for i in range(4)}
    for round_keys in rounds:
        assert set(round_keys) == expected  # every key exactly once per round


def test_counter_workload_permutations_differ_across_rounds():
    workload = CounterIncrementWorkload(keys=30, increments_per_key=3, rng=random.Random(3))
    round1 = [workload()[1][0] for _ in range(30)]
    round2 = [workload()[1][0] for _ in range(30)]
    assert round1 != round2  # astronomically unlikely to match


def test_counter_workload_balanced_counts():
    workload = CounterIncrementWorkload(keys=3, increments_per_key=4, rng=random.Random(4))
    counts = {}
    while (op := workload()) is not None:
        counts[op[1][0]] = counts.get(op[1][0], 0) + 1
    assert set(counts.values()) == {4}


def test_counter_workload_deterministic_for_seeded_rng():
    a = CounterIncrementWorkload(3, 2, rng=random.Random(7))
    b = CounterIncrementWorkload(3, 2, rng=random.Random(7))
    assert [a() for _ in range(6)] == [b() for _ in range(6)]


def test_counter_workload_chaincode_id():
    workload = CounterIncrementWorkload(2, 1, rng=random.Random(1))
    chaincode_id, args = workload()
    assert chaincode_id == "counter-increment"
    assert args[0].startswith("counter-")


def test_invalid_parameters():
    with pytest.raises(ValueError):
        CounterIncrementWorkload(0, 1, rng=random.Random(1))
