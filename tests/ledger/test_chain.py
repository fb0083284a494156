"""Unit tests for the per-peer blockchain store."""

import random

import pytest

from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
from repro.ledger.chain import Blockchain, ChainError

from tests.conftest import make_chain, make_transactions


def test_empty_chain():
    chain = Blockchain()
    assert chain.height == 0
    assert chain.tip_hash() == GENESIS_PREVIOUS_HASH
    assert chain.peek_ready() is None
    assert chain.max_known_number() == -1


def test_receive_buffers_and_dedupes():
    chain = Blockchain()
    block = make_chain([1])[0]
    assert chain.receive(block)
    assert not chain.receive(block)
    assert chain.has_block(0)
    assert chain.pending_count() == 1


def test_peek_ready_returns_next_in_sequence_only():
    chain = Blockchain()
    blocks = make_chain([1, 1, 1])
    chain.receive(blocks[2])
    assert chain.peek_ready() is None  # gap at 0
    chain.receive(blocks[0])
    assert chain.peek_ready() is blocks[0]


def test_peek_does_not_remove():
    chain = Blockchain()
    block = make_chain([1])[0]
    chain.receive(block)
    assert chain.peek_ready() is block
    assert chain.peek_ready() is block
    assert chain.has_block(0)


def test_commit_in_order():
    chain = Blockchain()
    blocks = make_chain([1, 1])
    chain.receive(blocks[0])
    chain.commit(blocks[0])
    assert chain.height == 1
    assert chain.tip_hash() == blocks[0].block_hash
    chain.commit(blocks[1])
    assert chain.height == 2


def test_commit_out_of_order_rejected():
    chain = Blockchain()
    blocks = make_chain([1, 1])
    with pytest.raises(ChainError):
        chain.commit(blocks[1])


def test_commit_bad_linkage_rejected():
    chain = Blockchain()
    orphan = Block.create(0, "f" * 64, make_transactions(1))
    with pytest.raises(ChainError):
        chain.commit(orphan)


def test_commit_tampered_block_rejected():
    chain = Blockchain()
    block = make_chain([2])[0]
    block.transactions.pop()
    with pytest.raises(ChainError):
        chain.commit(block)


def test_commit_removes_from_pending():
    chain = Blockchain()
    block = make_chain([1])[0]
    chain.receive(block)
    chain.commit(block)
    assert chain.pending_count() == 0
    assert chain.has_block(0)  # now committed


def test_receive_of_committed_block_is_duplicate():
    chain = Blockchain()
    block = make_chain([1])[0]
    chain.receive(block)
    chain.commit(block)
    assert not chain.receive(block)


def test_get_committed_and_get_any():
    chain = Blockchain()
    blocks = make_chain([1, 1])
    chain.receive(blocks[0])
    chain.receive(blocks[1])
    assert chain.get_committed(1) is None
    assert chain.get_any(1) is blocks[1]
    chain.commit(blocks[0])
    assert chain.get_committed(0) is blocks[0]
    assert chain.get_any(0) is blocks[0]
    assert chain.get_any(99) is None


def test_out_of_order_reception_then_sequential_commit():
    chain = Blockchain()
    blocks = make_chain([1, 1, 1, 1])
    for block in reversed(blocks):
        chain.receive(block)
    committed = []
    while (ready := chain.peek_ready()) is not None:
        chain.commit(ready)
        committed.append(ready.number)
    assert committed == [0, 1, 2, 3]
    assert chain.verify_committed_chain()


def test_missing_ranges():
    chain = Blockchain()
    blocks = make_chain([1, 1, 1, 1, 1])
    chain.receive(blocks[0])
    chain.commit(blocks[0])
    chain.receive(blocks[3])
    assert chain.missing_ranges(5) == [1, 2, 4]


def test_max_known_number_includes_pending():
    chain = Blockchain()
    blocks = make_chain([1, 1, 1])
    chain.receive(blocks[2])
    assert chain.max_known_number() == 2
    chain.receive(blocks[0])
    chain.commit(blocks[0])
    assert chain.max_known_number() == 2


def test_known_numbers_window():
    chain = Blockchain()
    blocks = make_chain([1] * 6)
    for block in blocks[:4]:
        chain.receive(block)
        chain.commit(block)
    chain.receive(blocks[5])  # 4 missing
    assert chain.known_numbers(window=3) == [3, 5]
    assert chain.known_numbers(window=10) == [0, 1, 2, 3, 5]


def test_known_numbers_empty_chain():
    assert Blockchain().known_numbers(window=5) == []


def test_known_numbers_equals_a_has_block_scan_on_random_chains():
    """The committed prefix is listed as a range; the result must be what
    probing every number of the window gives: same numbers, same order."""
    rng = random.Random(20)
    for _ in range(200):
        blocks = make_chain([0] * rng.randint(1, 40))
        chain = Blockchain()
        for block in blocks[: rng.randint(0, len(blocks))]:
            chain.commit(block)
        for block in blocks[chain.height:]:
            if rng.random() < 0.5:  # buffered out of order, with gaps
                chain.receive(block)
        for window in (0, 1, 3, 20, 100):
            top = chain.max_known_number()
            low = max(0, top - window + 1)
            scan = [n for n in range(low, top + 1) if chain.has_block(n)] if top >= 0 else []
            assert chain.known_numbers(window) == scan


def test_check_next_raises_what_commit_raises_and_changes_nothing():
    chain = Blockchain()
    blocks = make_chain([1, 2])
    tampered = make_chain([2])[0]
    tampered.transactions.pop()
    for bad in (blocks[1], Block.create(0, "f" * 64, make_transactions(1)), tampered):
        with pytest.raises(ChainError):
            chain.check_next(bad)
    chain.check_next(blocks[0])
    assert chain.height == 0 and chain.pending_count() == 0


def test_verify_committed_chain_detects_corruption():
    chain = Blockchain()
    blocks = make_chain([1, 1])
    chain.commit(blocks[0])
    chain.commit(blocks[1])
    assert chain.verify_committed_chain()
    chain.get_committed(0).transactions.append(make_transactions(1)[0])
    assert not chain.verify_committed_chain()


def test_committed_blocks_returns_copy():
    chain = Blockchain()
    block = make_chain([1])[0]
    chain.commit(block)
    listing = chain.committed_blocks()
    listing.clear()
    assert chain.height == 1
