"""Compiler edge cases for the adversarial/churn fault events, plus the
drop stage's composition contract (arming order + idempotent arming)."""

import pytest

from repro.experiments.builders import build_network
from repro.faults.adversaries import DigestLiarFault, LazyForwarderFault
from repro.faults.injectors import LinkDegradeFault, PartitionFault, TeasingPeerFault
from repro.faults.schedule import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    EclipseEvent,
    FlakyLinkEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    compile_fault_schedule,
)
from repro.gossip.config import EnhancedGossipConfig
from repro.gossip.messages import BlockPush, PushDigest, PushRequest
from repro.net.latency import TopologyLatency
from repro.net.network import NetworkConfig

from tests.conftest import make_chain, routes_to


def small_net(**kwargs):
    return build_network(
        n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), seed=1, **kwargs
    )


def wan_net():
    config = NetworkConfig(
        latency=TopologyLatency(matrix={("east", "east"): (0.001,)})
    )
    return build_network(
        n_peers=8,
        gossip=EnhancedGossipConfig.paper_f4(),
        organizations=2,
        seed=1,
        network_config=config,
        org_regions={"org0": "east", "org1": "west"},
    )


# ----- event validation -----------------------------------------------------


def test_adversary_event_validation():
    with pytest.raises(ValueError, match="kind"):
        AdversaryEvent(kind="grumpy", peers=("p",))
    with pytest.raises(ValueError):
        AdversaryEvent(kind="lazy", at=2.0, until=2.0, peers=("p",))
    with pytest.raises(ValueError):
        AdversaryEvent(kind="lazy", peers=("p",), drop_prob=1.5)
    with pytest.raises(ValueError):
        AdversaryEvent(kind="digest-liar", peers=("p",), lie_fanout=-1)
    with pytest.raises(ValueError):
        AdversaryEvent(kind="silent", peers=("p",), regular_slice=(0, 1))
    with pytest.raises(ValueError):
        AdversaryEvent(kind="silent")  # no selector


def test_eclipse_and_flaky_event_validation():
    with pytest.raises(ValueError, match="victim"):
        EclipseEvent(victim="", attackers=("a",))
    with pytest.raises(ValueError):
        EclipseEvent(victim="v", at=3.0, release_at=2.0, attackers=("a",))
    with pytest.raises(ValueError, match="distinct"):
        FlakyLinkEvent(at=1.0, direction=("east", "east"))
    with pytest.raises(ValueError):
        FlakyLinkEvent(at=1.0, direction=("east", "west"), loss_rate=2.0)


_NAN, _INF = float("nan"), float("inf")
_SELECT = {"peers": ("peer-1",)}


@pytest.mark.parametrize(
    "event, kwargs, field",
    [
        (CrashEvent, {"at": _NAN, **_SELECT}, "at"),
        (CrashEvent, {"at": -1.0, **_SELECT}, "at"),
        (CrashEvent, {"at": 1.0, "recover_at": _INF, **_SELECT}, "recover_at"),
        (CrashEvent, {"at": 1.0, "recover_at": _NAN, **_SELECT}, "recover_at"),
        (PartitionEvent, {"at": _INF, "islands": (("east",),)}, "at"),
        (PartitionEvent, {"at": 1.0, "heal_at": _NAN, "islands": (("east",),)}, "heal_at"),
        (DegradeEvent, {"at": _NAN}, "at"),
        (DegradeEvent, {"at": 1.0, "restore_at": _INF}, "restore_at"),
        (AdversaryEvent, {"kind": "silent", "at": _NAN, **_SELECT}, "at"),
        (AdversaryEvent, {"kind": "silent", "until": _INF, **_SELECT}, "until"),
        (EclipseEvent, {"victim": "v", "at": _INF, "attackers": ("a",)}, "at"),
        (EclipseEvent, {"victim": "v", "release_at": _NAN, "attackers": ("a",)}, "release_at"),
        (FlakyLinkEvent, {"at": _NAN, "direction": ("east", "west")}, "at"),
        (FlakyLinkEvent, {"at": 1.0, "direction": ("east", "west"), "restore_at": _NAN}, "restore_at"),
        (JoinEvent, {"at": _INF, **_SELECT}, "at"),
        (JoinEvent, {"at": _NAN, **_SELECT}, "at"),
        (LeaveEvent, {"at": _NAN, **_SELECT}, "at"),
        (LeaveEvent, {"at": -0.5, **_SELECT}, "at"),
    ],
)
def test_non_finite_or_negative_event_times_are_refused_by_name(event, kwargs, field):
    """Regression: NaN and infinite times constructed and the run failed
    late; an optional time is checked only when set (``None`` passes)."""
    with pytest.raises(ValueError, match=rf"{event.__name__}\.{field} must be finite and >= 0"):
        event(**kwargs)


def test_unset_optional_event_times_pass():
    assert CrashEvent(at=0.0, **_SELECT).recover_at is None
    assert DegradeEvent(at=0.0).restore_at is None
    assert AdversaryEvent(kind="lazy", **_SELECT).until is None
    assert EclipseEvent(victim="v", attackers=("a",)).release_at is None


# ----- compilation ----------------------------------------------------------


def test_adversary_compile_refuses_leaders():
    net = small_net()
    leader = sorted(net.leaders.values())[0]
    with pytest.raises(ValueError, match="leaders"):
        compile_fault_schedule(
            [AdversaryEvent(kind="teasing", peers=(leader,))], net
        )


def test_adversary_kinds_build_their_injectors():
    net = small_net()
    schedule = compile_fault_schedule(
        [
            AdversaryEvent(kind="silent", peers=("peer-1",)),
            AdversaryEvent(kind="teasing", peers=("peer-2",)),
            AdversaryEvent(kind="lazy", peers=("peer-3",), drop_prob=0.4),
            AdversaryEvent(kind="digest-liar", peers=("peer-4",), lie_fanout=3),
        ],
        net,
    )
    kinds = [type(fault) for fault in schedule.drops]
    assert kinds == [LazyForwarderFault, TeasingPeerFault, LazyForwarderFault, DigestLiarFault]
    assert schedule.drops[0].drop_prob == 1.0  # silent
    assert schedule.drops[2].drop_prob == 0.4
    assert schedule.drops[3].lie_fanout == 3
    # at=0 means active from the start, no timer needed.
    assert all(fault.active for fault in schedule.drops)
    # Armed on the network's drop stage in event order.
    assert net.network._drops == schedule.drops


def test_a_silent_adversary_drops_exactly_the_forward_work():
    """``kind="silent"`` is a lazy forwarder at drop_prob=1.0, whatever
    ``drop_prob`` the event carries: it drops every digest and unrequested
    forward its peers send, never a requested serve or an own fetch, and
    draws nothing (no ``faults:lazy:<src>`` stream is opened)."""
    net = small_net()
    schedule = compile_fault_schedule(
        [AdversaryEvent(kind="silent", peers=("peer-1", "peer-2"), drop_prob=0.3)], net
    )
    (fault,) = schedule.drops
    block = make_chain([1])[0]
    network = net.network
    network.send("peer-1", "peer-3", PushDigest(0, block.block_hash, 1))  # dropped
    network.multicast("peer-2", ["peer-3", "peer-4"], BlockPush(block))  # both dropped
    network.send("peer-1", "peer-3", BlockPush(block, counter=1, requested=True))  # serve
    network.send("peer-2", "peer-3", PushRequest(0, 1))  # own fetch
    network.send("peer-3", "peer-4", BlockPush(block))  # an honest forward
    assert fault.dropped == network.dropped_messages == 3
    assert not [name for name in net.streams.names() if name.startswith("faults:lazy")]


def test_adversary_window_arms_and_disarms():
    net = small_net()
    schedule = compile_fault_schedule(
        [AdversaryEvent(kind="teasing", at=1.0, until=2.0, peers=("peer-1",))],
        net,
    )
    (fault,) = schedule.drops
    assert fault.active is False
    net.sim.run(until=1.5)
    assert fault.active is True
    net.sim.run(until=2.5)
    assert fault.active is False


def test_eclipse_compile_rejects_unknown_victim_and_attacker():
    net = small_net()
    with pytest.raises(ValueError, match="victim"):
        compile_fault_schedule(
            [EclipseEvent(victim="ghost", attackers=("peer-1",))], net
        )
    with pytest.raises(ValueError, match="unknown"):
        compile_fault_schedule(
            [EclipseEvent(victim="peer-1", attackers=("ghost",))], net
        )


def test_flaky_compile_resolves_region_directions():
    net = wan_net()
    schedule = compile_fault_schedule(
        [FlakyLinkEvent(at=0.0, direction=("east", "west"), loss_rate=1.0)], net
    )
    (fault,) = schedule.drops
    assert isinstance(fault, LinkDegradeFault) and fault.loss_rate == 1.0
    # org0 (even peers) is east; the protected orderer is excluded.
    east = {f"peer-{i}" for i in range(0, 8, 2)}
    west = {f"peer-{i}" for i in range(1, 8, 2)}
    nodes = sorted(east | west | {"orderer"})
    selected = {(src, dst) for src in nodes for dst in nodes if fault._link_filter(src, dst)}
    assert selected == {(src, dst) for src in east for dst in west}


def test_opposite_flaky_links_each_drop_their_own_direction():
    """Two flaky-link events in opposite directions: each drops the copies
    of its own direction, from its sender's ``faults:flaky:<src>``
    stream. (A one-way filter closing over the compile loop's variable
    would give both the last event's direction.)"""
    net = wan_net()
    schedule = compile_fault_schedule(
        [
            FlakyLinkEvent(at=0.0, direction=("east", "west"), loss_rate=1.0),
            FlakyLinkEvent(at=0.0, direction=("west", "east"), loss_rate=1.0),
        ],
        net,
    )
    east_to_west, west_to_east = schedule.drops
    assert east_to_west._link_filter("peer-0", "peer-1")
    assert not east_to_west._link_filter("peer-1", "peer-0")
    assert west_to_east._link_filter("peer-1", "peer-0")
    assert not west_to_east._link_filter("peer-0", "peer-1")
    net.network.send("peer-0", "peer-1", PushRequest(0, 1))
    net.network.send("peer-0", "peer-3", PushRequest(0, 1))
    net.network.send("peer-1", "peer-0", PushRequest(0, 1))
    net.network.send("peer-0", "peer-2", PushRequest(0, 1))  # east -> east: clean
    assert (east_to_west.dropped, west_to_east.dropped) == (2, 1)
    flaky = [name for name in net.streams.names() if name.startswith("faults:")]
    assert flaky == ["faults:flaky:peer-0", "faults:flaky:peer-1"]


def test_flaky_compile_rejects_unplaced_region():
    net = wan_net()
    with pytest.raises(ValueError, match="no unprotected nodes"):
        compile_fault_schedule(
            [FlakyLinkEvent(at=0.0, direction=("east", "mars"))], net
        )


def test_crash_during_partition_composes():
    """Overlapping faults compile and count independently: the partition
    drops cross-island traffic, the crash disconnects its peer."""
    net = small_net()
    schedule = compile_fault_schedule(
        [
            PartitionEvent(at=0.5, heal_at=3.0, islands=(("peer-1", "peer-2"),)),
            CrashEvent(at=1.0, recover_at=2.0, peers=("peer-1",)),
        ],
        net,
    )
    net.start()
    (partition,) = schedule.drops
    net.sim.run(until=1.5)
    assert partition.active is True
    assert net.network._disconnected["peer-1"] is True
    net.sim.run(until=4.0)
    assert partition.active is False
    assert net.network._disconnected["peer-1"] is False


# ----- drop-stage composition contract --------------------------------------


def silent(network, peers):
    return LazyForwarderFault(network, peers, 1.0, network._streams)


def test_rearming_is_idempotent(network, sim):
    inbox = []
    network.register("a", routes_to(lambda src, msg: inbox.append(msg)))
    network.register("b", routes_to(lambda src, msg: inbox.append(msg)))
    fault = silent(network, ["a"])
    network.arm_drop(fault)
    network.arm_drop(fault)  # arming twice more must not duplicate the fault
    assert network._drops == [fault]
    block = make_chain([1])[0]
    network.send("a", "b", BlockPush(block))
    sim.run()
    assert fault.dropped == 1  # counted once, not three times


def test_arming_order_short_circuits(network, sim):
    """When two faults would both drop a message, only the one armed
    first counts it."""
    network.register("a", routes_to(lambda src, msg: None))
    network.register("b", routes_to(lambda src, msg: None))
    first = silent(network, ["a"])
    second = TeasingPeerFault(network, ["a"])
    block = make_chain([1])[0]
    network.send("a", "b", BlockPush(block))  # both faults match
    sim.run()
    assert first.dropped == 1
    assert second.dropped == 0
    assert network.dropped_messages == 1

