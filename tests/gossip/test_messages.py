"""Unit tests for gossip wire messages and their sizes."""

import pytest

from repro.gossip.messages import (
    BlockPush,
    MembershipAlive,
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

from tests.conftest import make_block, make_chain


def test_block_push_size_dominated_by_block():
    block = make_block(txs=3)
    message = BlockPush(block, counter=5)
    assert message.payload_size() == block.size_bytes() + 8
    assert message.counter == 5


def test_push_digest_small():
    message = PushDigest(3, "ab" * 32, counter=4)
    assert message.payload_size() < 100


def test_digest_much_smaller_than_block():
    block = make_block(txs=50)
    digest = PushDigest(block.number, block.block_hash, 1)
    assert digest.payload_size() * 100 < BlockPush(block).payload_size()


def test_pull_digest_response_scales_with_entries():
    small = PullDigestResponse([1])
    large = PullDigestResponse(list(range(10)))
    assert large.payload_size() > small.payload_size()
    assert large.block_numbers == tuple(range(10))


def test_pull_block_response_sums_block_sizes():
    blocks = make_chain([1, 2])
    message = PullBlockResponse(blocks)
    assert message.payload_size() == 16 + sum(b.size_bytes() for b in blocks)


def test_recovery_request_range_validated():
    RecoveryRequest(3, 7)
    with pytest.raises(ValueError):
        RecoveryRequest(7, 3)


def test_recovery_response_carries_blocks():
    blocks = make_chain([1, 1])
    message = RecoveryResponse(blocks)
    assert len(message.blocks) == 2
    assert message.payload_size() > blocks[0].size_bytes()


def test_state_info_fixed_size():
    assert StateInfo(10).payload_size() == StateInfo(10_000).payload_size()


def test_membership_alive_size_configurable():
    assert MembershipAlive(12_345).payload_size() == 12_345


def test_small_control_messages():
    assert PullDigestRequest().payload_size() <= 16
    assert PushRequest(1, 2).payload_size() <= 16
    assert PullBlockRequest([1, 2, 3]).payload_size() < 100
