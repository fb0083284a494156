"""Unit tests for the original infect-and-die push component."""

from repro.gossip.messages import BlockPush
from repro.gossip.push_infect_die import InfectAndDiePush

from tests.conftest import FakeHost, make_chain, make_view


def make_push(fout=2, t_push=0.0, buffer_max=10, org_size=6):
    host = FakeHost("p0")
    view = make_view("p0", org_size=org_size)
    push = InfectAndDiePush(host, view, fout=fout, t_push=t_push, buffer_max=buffer_max)
    return host, push


def test_immediate_push_without_timer():
    host, push = make_push(fout=2, t_push=0.0)
    block = make_chain([1])[0]
    push.on_first_reception(block)
    assert len(host.sent) == 2
    targets = {dst for dst, _ in host.sent}
    assert len(targets) == 2
    assert "p0" not in targets


def test_buffered_push_waits_for_timer():
    host, push = make_push(fout=2, t_push=0.010)
    block = make_chain([1])[0]
    push.on_first_reception(block)
    assert host.sent == []  # buffered
    host.run(until=0.010)
    assert len(host.sent) == 2


def test_batch_goes_to_same_targets():
    """Fabric's bias: blocks flushed together share one target sample."""
    host, push = make_push(fout=2, t_push=0.010)
    blocks = make_chain([1, 1])
    push.on_first_reception(blocks[0])
    push.on_first_reception(blocks[1])
    host.run(until=0.010)
    assert len(host.sent) == 4
    targets_b0 = {dst for dst, msg in host.sent if msg.block.number == 0}
    targets_b1 = {dst for dst, msg in host.sent if msg.block.number == 1}
    assert targets_b0 == targets_b1


def test_buffer_max_triggers_early_flush():
    host, push = make_push(fout=1, t_push=10.0, buffer_max=2)
    blocks = make_chain([1, 1])
    push.on_first_reception(blocks[0])
    assert host.sent == []
    push.on_first_reception(blocks[1])
    assert len(host.sent) == 2  # flushed before the 10 s timer


def test_infect_and_die_pushes_once_per_block():
    host, push = make_push(fout=2, t_push=0.0)
    block = make_chain([1])[0]
    push.on_first_reception(block)
    assert push.blocks_pushed == 1
    # The component is only invoked on *first* reception by contract; a
    # second block infects independently.
    push.on_first_reception(make_chain([1, 1])[1])
    assert push.blocks_pushed == 2


def test_messages_carry_counter_zero():
    host, push = make_push()
    push.on_first_reception(make_chain([1])[0])
    assert all(msg.counter == 0 for _, msg in host.sent)


def test_fout_clamped_by_org_size():
    host, push = make_push(fout=10, org_size=4)
    push.on_first_reception(make_chain([1])[0])
    assert len(host.sent) == 3  # only 3 other peers exist


def test_a_push_multicasts_one_shared_copy_to_fout_targets():
    host = FakeHost("p0")
    view = make_view("p0", org_size=5)
    push = InfectAndDiePush(host, view, fout=2, t_push=0.0)
    push.on_first_reception(make_chain([1])[0])
    targets = [dst for dst, _ in host.sent]
    messages = {id(message): message for _, message in host.sent}
    assert len(targets) == len(set(targets)) == 2 and "p0" not in targets
    (message,) = messages.values()  # one BlockPush shared by the fanout
    assert isinstance(message, BlockPush) and message.block.number == 0


def test_separate_timer_batches():
    host, push = make_push(fout=1, t_push=0.010)
    blocks = make_chain([1, 1])
    push.on_first_reception(blocks[0])
    host.run(until=0.010)
    push.on_first_reception(blocks[1])
    host.run(until=0.030)
    assert len(host.sent) == 2
    assert push.blocks_pushed == 2
