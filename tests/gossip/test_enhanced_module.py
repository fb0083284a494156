"""Unit tests for the assembled enhanced gossip module."""

import pytest

from repro.gossip.config import EnhancedGossipConfig
from repro.gossip.enhanced import EnhancedGossip
from repro.gossip.messages import (
    BlockPush,
    PullDigestRequest,
    PushDigest,
    PushRequest,
    RecoveryResponse,
    StateInfo,
)

from tests.conftest import FakeHost, make_chain, make_view


def make_module(**overrides):
    host = FakeHost("p0")
    view = make_view("p0", org_size=10)
    config = EnhancedGossipConfig(**overrides)
    module = EnhancedGossip(host, view, config)
    return host, module


def test_leader_delegates_initiation_to_one_peer():
    host, module = make_module(leader_fanout=1)
    block = make_chain([1])[0]
    module.on_block_from_orderer(block)
    assert host.deliveries == [(0, "orderer")]
    pushes = [(dst, msg) for dst, msg in host.sent if isinstance(msg, BlockPush)]
    assert len(pushes) == 1
    assert pushes[0][1].counter == 0


def test_leader_fanout_ablation_sends_multiple_copies():
    host, module = make_module(leader_fanout=4)
    block = make_chain([1])[0]
    module.on_block_from_orderer(block)
    pushes = [msg for _, msg in host.sent if isinstance(msg, BlockPush)]
    assert len(pushes) == 4
    assert all(msg.counter == 0 for msg in pushes)


def test_leader_does_not_act_as_initial_gossiper_on_echo():
    """The leader marks (b, 0) seen; an echo of the epidemic must not make
    it initiate a second dissemination of the same pair."""
    host, module = make_module(leader_fanout=1, fout=4)
    block = make_chain([1])[0]
    module.on_block_from_orderer(block)
    host.sent.clear()
    module.handle("p3", BlockPush(block, counter=0))
    # Pair (b, 0) already seen: no forwarding.
    assert not any(isinstance(m, (BlockPush, PushDigest)) for _, m in host.sent)


def test_initial_gossiper_forwards_with_counter_one():
    host, module = make_module(fout=4, ttl_direct=2)
    block = make_chain([1])[0]
    module.handle("leader", BlockPush(block, counter=0))
    assert host.deliveries == [(0, "push")]
    pushes = [msg for _, msg in host.sent if isinstance(msg, BlockPush)]
    assert len(pushes) == 4
    assert all(msg.counter == 1 for msg in pushes)


def test_forwarding_goes_through_host_multicast():
    """The push component binds ``host.multicast`` itself: the initial
    gossiper's forward is one multicast of one shared message to ``fout``
    distinct peers other than itself."""
    calls = []

    class MulticastHost(FakeHost):
        def multicast(self, dsts, message):
            calls.append((list(dsts), message))
            super().multicast(dsts, message)

    host = MulticastHost("p0")
    config = EnhancedGossipConfig(fout=4, ttl_direct=2)
    module = EnhancedGossip(host, make_view("p0", org_size=10), config)
    module.handle("p9", BlockPush(make_chain([1])[0], counter=0))
    pushes = [(dsts, message) for dsts, message in calls if isinstance(message, BlockPush)]
    assert len(pushes) == 1
    dsts, message = pushes[0]
    assert message.counter == 1
    assert len(set(dsts)) == 4 and "p0" not in dsts
    assert [(dst, sent) for dst, sent in host.sent if isinstance(sent, BlockPush)] == [
        (dst, message) for dst in dsts
    ]


def test_digest_and_request_routed():
    host, module = make_module()
    block = make_chain([1])[0]
    module.handle("p2", BlockPush(block, counter=5))
    host.sent.clear()
    assert module.handle("p3", PushDigest(0, block.block_hash, 4))
    assert module.handle("p4", PushRequest(0, 4))
    served = [msg for dst, msg in host.sent if dst == "p4" and isinstance(msg, BlockPush)]
    assert len(served) == 1


def test_no_pull_component():
    host, module = make_module()
    assert not module.handle("p3", PullDigestRequest())


def test_recovery_still_present():
    host, module = make_module()
    assert module.handle("p3", StateInfo(9))
    assert module.recovery.known_heights["p3"] == 9
    module.start()
    assert len(host.timers) == 2  # state info + recovery only


def test_paper_configurations():
    f4 = EnhancedGossipConfig.paper_f4()
    assert (f4.fout, f4.ttl, f4.ttl_direct) == (4, 9, 2)
    f2 = EnhancedGossipConfig.paper_f2()
    assert (f2.fout, f2.ttl, f2.ttl_direct) == (2, 19, 3)
    assert f4.leader_fanout == f2.leader_fanout == 1


def test_config_validation():
    with pytest.raises(ValueError):
        EnhancedGossipConfig(ttl=0)
    with pytest.raises(ValueError):
        EnhancedGossipConfig(ttl=5, ttl_direct=6)
    with pytest.raises(ValueError):
        EnhancedGossipConfig(fout=0)
    with pytest.raises(TypeError):
        EnhancedGossipConfig(t_push=0.010)  # no push buffer: every pair samples alone


def test_a_block_recovered_while_its_digests_wait_settles_their_state():
    """A block that arrives by recovery, not by push, still forwards the
    pair its digests queued (once), serves the request that waited for it
    and leaves no digest state behind; the retried request it overtook is
    not a stall the retry ladder rescued."""
    host, module = make_module(fout=2, ttl=9, ttl_direct=2)
    push = module.push
    block = make_chain([1])[0]
    module.handle("p3", PushDigest(0, block.block_hash, counter=3))
    module.handle("p4", PushDigest(0, block.block_hash, counter=3))
    module.handle("p5", PushRequest(0, 4))  # we are still missing the block
    host.run(until=0.6)
    assert push.requests_retried == 1  # the request to p3 stalled; p4 was asked
    host.sent.clear()

    module.handle("p6", RecoveryResponse([block]))
    assert host.deliveries == [(0, "recovery")]
    assert [msg.counter for _, msg in host.sent if isinstance(msg, PushDigest)] == [4, 4]
    served = [(dst, msg.counter) for dst, msg in host.sent if isinstance(msg, BlockPush)]
    assert served == [("p5", 4)]
    assert push._missing is None  # its one record settled, none left

    # The retried transfer lands afterwards: its pair was forwarded above,
    # and its timer finds the request gone.
    host.sent.clear()
    module.handle("p4", BlockPush(block, counter=3, requested=True))
    host.run(until=5.0)
    assert host.sent == []
    assert push.stalls_rescued_by_retry == 0
    assert push.request_timeouts == 1


def test_duplicate_block_delivery_ignored_but_pair_logic_runs():
    host, module = make_module(fout=2, ttl_direct=9)
    block = make_chain([1])[0]
    module.handle("p2", BlockPush(block, counter=1))
    host.sent.clear()
    module.handle("p3", BlockPush(block, counter=3))  # same block, new pair
    pushes = [msg for _, msg in host.sent if isinstance(msg, BlockPush)]
    assert len(pushes) == 2
    assert all(msg.counter == 4 for msg in pushes)
    assert host.deliveries == [(0, "push")]  # delivered once
