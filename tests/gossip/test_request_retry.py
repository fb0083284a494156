"""Unit tests for the request-retry ladder of the enhanced push component.

One ``PushRequest`` is in flight per block; the ladder (a) times a stalled
request out after ``request_timeout * backoff^attempts``, (b) retries
deterministically against the first *untried* digest holder in arrival
order (no RNG — sharded and single-process runs retry identically),
(c) abandons the slot after ``request_retries`` retries so a later digest
can re-open it, and (d) counts stalls the ladder resolved without the
recovery component.
"""

from repro.gossip.messages import PushDigest, PushRequest
from repro.gossip.push_infect_contagion import InfectUponContagionPush

from tests.conftest import FakeHost, make_chain, make_view


def make_push(**kwargs):
    host = FakeHost("p0")
    view = make_view("p0", org_size=8)
    defaults = dict(
        fout=2, ttl=9, ttl_direct=2,
        request_timeout=0.5, request_retries=2, retry_backoff=2.0,
    )
    defaults.update(kwargs)
    push = InfectUponContagionPush(host, view, **defaults)
    return host, push


def requests_to(host):
    return [(dst, msg) for dst, msg in host.sent if isinstance(msg, PushRequest)]


def test_retry_rotates_to_a_different_holder():
    host, push = make_push()
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=4))
    push.on_digest("p5", PushDigest(0, "a" * 64, counter=5))
    host.run(until=0.6)   # first timeout at 0.5
    host.run(until=1.7)   # second at 0.5 + 1.0 (backoff x2)
    targets = [dst for dst, _ in requests_to(host)]
    # Digest-arrival-order rotation: original to p3, retries to p4 then p5.
    assert targets == ["p3", "p4", "p5"]
    assert push.request_timeouts == 2
    assert push.requests_retried == 2


def test_retry_round_robins_when_every_holder_was_tried():
    host, push = make_push(request_retries=5)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    host.run(until=2.0)  # timeouts at 0.5 and 1.5; only one holder known
    targets = [dst for dst, _ in requests_to(host)]
    assert targets == ["p3", "p3", "p3"]


def test_backoff_stretches_the_timeout():
    host, push = make_push(request_retries=5, retry_backoff=2.0)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=4))
    host.run(until=0.49)
    assert push.request_timeouts == 0
    host.run(until=0.51)
    assert push.request_timeouts == 1
    # Second rung waits 0.5 * 2^1 = 1.0 s after the retry at t=0.5.
    host.run(until=1.49)
    assert push.request_timeouts == 1
    host.run(until=1.51)
    assert push.request_timeouts == 2


def test_abandon_after_retry_budget_releases_the_slot():
    host, push = make_push(request_retries=1)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=3))
    host.run(until=5.0)  # retry at 0.5, abandonment at 1.5
    assert push.requests_retried == 1
    assert push.requests_abandoned == 1
    record = push._missing[0]
    assert record.request is None and record.holders == ["p3", "p4"]
    # A later digest re-opens the slot from scratch, asking its own sender.
    push.on_digest("p5", PushDigest(0, "a" * 64, counter=4))
    assert requests_to(host)[-1][0] == "p5"
    assert record.request.tried == ["p5"]


def test_arrival_after_retry_counts_as_rescue():
    host, push = make_push()
    block = make_chain([1])[0]
    push.on_digest("p3", PushDigest(0, block.block_hash, counter=3))
    host.run(until=0.6)  # one retry happened
    host.deliver_block(block, "push")
    push.on_pair(block, 3)
    assert push.stalls_rescued_by_retry == 1
    assert push._missing is None


def test_prompt_arrival_is_not_a_rescue():
    host, push = make_push()
    block = make_chain([1])[0]
    push.on_digest("p3", PushDigest(0, block.block_hash, counter=3))
    host.deliver_block(block, "push")
    push.on_pair(block, 3)  # before any timeout fired
    assert push.stalls_rescued_by_retry == 0
    host.run(until=5.0)  # the armed timer fires against a resolved slot
    assert push.request_timeouts == 0
    assert push.requests_retried == 0


def test_stale_generation_timer_is_a_noop():
    """Each retry bumps the generation; the superseded timer must not
    double-fire the ladder when both rungs land in one run window."""
    host, push = make_push(request_retries=5)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    push.on_digest("p4", PushDigest(0, "a" * 64, counter=3))
    host.run(until=0.6)
    assert push.requests_retried == 1
    state = push._missing[0].request
    # Firing the old generation by hand changes nothing.
    push._on_request_timeout(0, state.generation - 1)
    assert push.requests_retried == 1
    assert push.request_timeouts == 1


def test_zero_timeout_disables_the_ladder():
    host, push = make_push(request_timeout=0.0)
    push.on_digest("p3", PushDigest(0, "a" * 64, counter=3))
    host.run(until=60.0)
    assert len(requests_to(host)) == 1
    assert push.request_timeouts == 0
    assert push.requests_abandoned == 0


def test_config_validates_retry_knobs():
    import pytest

    from repro.gossip.config import EnhancedGossipConfig

    with pytest.raises(ValueError):
        EnhancedGossipConfig(request_timeout=-0.1)
    with pytest.raises(ValueError):
        EnhancedGossipConfig(request_retries=-1)
    with pytest.raises(ValueError):
        EnhancedGossipConfig(retry_backoff=0.5)
