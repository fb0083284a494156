"""Unit tests for the enhanced infect-upon-contagion push component."""

import pytest

from repro.gossip.config import EnhancedGossipConfig
from repro.gossip.messages import BlockPush, PushDigest, PushRequest
from repro.gossip.push_infect_contagion import InfectUponContagionPush

from tests.conftest import FakeHost, make_chain, make_view


def make_push(fout=2, ttl=5, ttl_direct=2, use_digests=True, org_size=8):
    host = FakeHost("p0")
    view = make_view("p0", org_size=org_size)
    push = InfectUponContagionPush(
        host, view, fout=fout, ttl=ttl, ttl_direct=ttl_direct, use_digests=use_digests,
    )
    return host, push


def test_first_pair_forwards_incremented_counter():
    host, push = make_push(fout=3, ttl_direct=5)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    assert push.on_pair(block, 0)
    assert len(host.sent) == 3
    assert all(isinstance(msg, BlockPush) and msg.counter == 1 for _, msg in host.sent)


def test_duplicate_pair_not_forwarded():
    host, push = make_push(fout=2, ttl_direct=5)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    assert push.on_pair(block, 0)
    sent_before = len(host.sent)
    assert not push.on_pair(block, 0)
    assert len(host.sent) == sent_before


def test_same_block_different_counter_forwards_again():
    """The exact-pair semantics of the paper: (b, 0) and (b, 2) both spread."""
    host, push = make_push(fout=2, ttl_direct=5)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_pair(block, 0)
    push.on_pair(block, 2)
    counters = sorted(msg.counter for _, msg in host.sent)
    assert counters == [1, 1, 3, 3]


def test_ttl_stops_forwarding():
    host, push = make_push(fout=2, ttl=3, ttl_direct=3)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_pair(block, 3)  # next counter would be 4 > ttl
    assert host.sent == []
    push.on_pair(block, 2)  # next counter 3 == ttl: still forwards
    assert len(host.sent) == 2


def test_digest_used_above_ttl_direct():
    host, push = make_push(fout=2, ttl=6, ttl_direct=2)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_pair(block, 1)  # next counter 2 <= ttl_direct: full block
    assert all(isinstance(msg, BlockPush) for _, msg in host.sent)
    host.sent.clear()
    push.on_pair(block, 2)  # next counter 3 > ttl_direct: digest
    assert all(isinstance(msg, PushDigest) for _, msg in host.sent)
    assert all(msg.counter == 3 for _, msg in host.sent)


def test_no_digest_ablation_pushes_full_blocks():
    host, push = make_push(fout=2, ttl=6, ttl_direct=2, use_digests=False)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_pair(block, 4)
    assert all(isinstance(msg, BlockPush) for _, msg in host.sent)


def test_digest_for_unknown_block_triggers_single_request():
    host, push = make_push(fout=2)
    digest = PushDigest(0, "a" * 64, counter=3)
    push.on_digest("p3", digest)
    requests = [msg for _, msg in host.sent if isinstance(msg, PushRequest)]
    assert len(requests) == 1
    # A second digest for the same block must not re-request immediately.
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=4))
    requests = [msg for _, msg in host.sent if isinstance(msg, PushRequest)]
    assert len(requests) == 1


def test_request_retries_after_timeout():
    host, push = make_push(fout=2)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    host.sim.schedule(push.REQUEST_RETRY_TIMEOUT + 0.1, lambda: None)
    host.run(until=push.REQUEST_RETRY_TIMEOUT + 0.1)
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=3))
    requests = [msg for _, msg in host.sent if isinstance(msg, PushRequest)]
    assert len(requests) == 2


def test_pending_pairs_flushed_on_block_arrival():
    """Counters learned while the transfer is in flight forward on arrival."""
    host, push = make_push(fout=2, ttl=9, ttl_direct=0)
    block = make_chain([1])[0]
    push.on_digest("p3", PushDigest(0, block.block_hash, counter=3))
    push.on_digest("p4", PushDigest(0, block.block_hash, counter=5))
    digests_before = [msg for _, msg in host.sent if isinstance(msg, PushDigest)]
    assert digests_before == []  # nothing forwarded while blockless
    host.deliver_block(block, "push")
    push.on_pair(block, 3)  # requested transfer arrives with counter 3
    forwarded = sorted(msg.counter for _, msg in host.sent if isinstance(msg, PushDigest))
    # Pair (b,3) and (b,5) each forwarded once, as (b,4) and (b,6).
    assert forwarded == [4, 4, 6, 6]


def test_request_served_when_block_arrives_later():
    host, push = make_push(fout=2)
    block = make_chain([1])[0]
    push.on_request("p5", PushRequest(0, 4))
    assert not any(isinstance(msg, BlockPush) for _, msg in host.sent)
    host.deliver_block(block, "push")
    push.on_pair(block, 1)
    served = [(dst, msg) for dst, msg in host.sent if isinstance(msg, BlockPush) and dst == "p5"]
    assert len(served) == 1
    assert served[0][1].counter == 4


def test_request_served_immediately_when_block_held():
    host, push = make_push()
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_request("p5", PushRequest(0, 2))
    served = host.sent_to("p5")
    assert len(served) == 1
    assert isinstance(served[0], BlockPush)


def test_digest_with_block_held_behaves_like_pair():
    host, push = make_push(fout=2, ttl=9, ttl_direct=0)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_digest("p3", PushDigest(0, block.block_hash, counter=2))
    forwarded = [msg for _, msg in host.sent if isinstance(msg, PushDigest)]
    assert len(forwarded) == 2
    assert all(msg.counter == 3 for msg in forwarded)
    assert not any(isinstance(msg, PushRequest) for _, msg in host.sent)


def test_counter_domain_is_one_word_per_block():
    """A TTL above 63 is refused, by the config and by the push; a counter
    above the TTL records no pair; and (b, 63) and (b + 1, 0) are distinct
    pairs, each one bit of its own block's word."""
    with pytest.raises(ValueError, match="ttl must be <= 63"):
        EnhancedGossipConfig(ttl=64)
    with pytest.raises(ValueError, match="ttl must be <= 63"):
        make_push(ttl=64, ttl_direct=2)
    host, push = make_push(fout=2, ttl=63, ttl_direct=2)
    first, second = make_chain([1, 1])
    host.deliver_block(first, "push")
    host.deliver_block(second, "push")
    assert push.on_pair(first, 63)
    assert push.on_pair(second, 0)
    assert not push.on_pair(first, 63)
    assert list(push._seen_pairs) == [1 << 63, 1]
    assert push.pairs_received == 2

    host, push = make_push(fout=2, ttl=9, ttl_direct=2)
    host.deliver_block(first, "push")
    host.sent.clear()
    assert not push.on_pair(first, 10)
    push.on_digest("p3", PushDigest(0, first.block_hash, counter=12))
    assert push.pairs_received == 0 and host.sent == []
    assert list(push._seen_pairs) == [0]


def test_counters_statistics():
    host, push = make_push(fout=2, ttl=9, ttl_direct=1)
    block = make_chain([1])[0]
    host.deliver_block(block, "push")
    push.on_pair(block, 0)  # full pushes (counter 1 <= ttl_direct)
    push.on_pair(block, 3)  # digests
    assert push.pairs_received == 2
    assert push.pairs_forwarded == 2
    assert push.full_pushes_sent == 2
    assert push.digests_sent == 2
