"""Unit tests for the assembled original gossip module."""

from repro.gossip.config import OriginalGossipConfig
from repro.gossip.messages import (
    BlockPush,
    PullBlockRequest,
    PullBlockResponse,
    PullDigestRequest,
    PullDigestResponse,
    RecoveryRequest,
    StateInfo,
)
from repro.gossip.original import OriginalGossip
from repro.net.message import RawMessage

from tests.conftest import FakeHost, make_chain, make_view


def make_module(**config_overrides):
    host = FakeHost("p0")
    view = make_view("p0", org_size=8)
    config = OriginalGossipConfig(**config_overrides)
    module = OriginalGossip(host, view, config)
    return host, module


def test_orderer_block_delivered_and_pushed():
    host, module = make_module(fout=3, t_push=0.0)
    block = make_chain([1])[0]
    module.on_block_from_orderer(block)
    assert host.deliveries == [(0, "orderer")]
    pushes = [msg for _, msg in host.sent if isinstance(msg, BlockPush)]
    assert len(pushes) == 3


def test_push_fanout_goes_through_host_multicast():
    """The module binds ``host.multicast`` itself: the leader's push is one
    multicast of one shared message to ``fout`` distinct peers."""
    calls = []

    class MulticastHost(FakeHost):
        def multicast(self, dsts, message):
            calls.append((list(dsts), message))
            super().multicast(dsts, message)

    host = MulticastHost("p0")
    config = OriginalGossipConfig(fout=3, t_push=0.0)
    module = OriginalGossip(host, make_view("p0", org_size=8), config)
    module.on_block_from_orderer(make_chain([1])[0])
    pushes = [(dsts, message) for dsts, message in calls if isinstance(message, BlockPush)]
    assert len(pushes) == 1
    dsts, message = pushes[0]
    assert len(set(dsts)) == 3 and "p0" not in dsts
    assert host.sent == [(dst, message) for dst in dsts]


def test_pushed_block_reforwarded_once():
    host, module = make_module(fout=2, t_push=0.0)
    block = make_chain([1])[0]
    assert module.handle("p3", BlockPush(block))
    assert host.deliveries == [(0, "push")]
    assert len([m for _, m in host.sent if isinstance(m, BlockPush)]) == 2
    # Duplicate push: no re-forward (infect-and-die).
    module.handle("p4", BlockPush(block))
    assert len([m for _, m in host.sent if isinstance(m, BlockPush)]) == 2


def test_pull_messages_routed():
    host, module = make_module()
    block = make_chain([1])[0]
    host.deliver_block(block, "test")
    assert module.handle("p3", PullDigestRequest())
    assert any(isinstance(m, PullDigestResponse) for _, m in host.sent)
    assert module.handle("p3", PullBlockRequest([0]))
    assert any(isinstance(m, PullBlockResponse) for _, m in host.sent)


def test_pull_obtained_block_not_pushed():
    """Paper §III-A: blocks received via pull are not pushed onward."""
    host, module = make_module(fout=3, t_push=0.0)
    block = make_chain([1])[0]
    module.handle("p3", PullBlockResponse([block]))
    assert host.deliveries == [(0, "pull")]
    assert not any(isinstance(m, BlockPush) for _, m in host.sent)


def test_state_info_and_recovery_routed():
    host, module = make_module()
    assert module.handle("p3", StateInfo(4))
    assert module.recovery.known_heights == {"p3": 4}
    block = make_chain([1])[0]
    host.deliver_block(block, "test")
    assert module.handle("p4", RecoveryRequest(0, 1))
    assert host.sent_to("p4")


def test_unknown_message_not_consumed():
    host, module = make_module()
    assert not module.handle("p3", RawMessage(10))


def test_start_arms_pull_and_recovery():
    host, module = make_module()
    module.start()
    # pull (1) + state info (1) + recovery (1) periodic timers
    assert len(host.timers) == 3
    module.start()  # idempotent
    assert len(host.timers) == 3


def test_pull_disabled_when_fin_zero():
    host, module = make_module(fin=0)
    module.start()
    assert len(host.timers) == 2  # only state info + recovery
