"""Unit tests for the churn engine: runtime joins and departures.

Membership mutations are copy-on-write on the view layer: every view
starts on its organization's shared member array, and the first join or
leave it sees gives it a private one (its samplers rebound to it), so
churn is visible to that view's future gossip draws and to no other view.
"""

import pytest

from repro.experiments.builders import build_network
from repro.faults.churn import ChurnController
from repro.faults.schedule import JoinEvent, LeaveEvent, compile_fault_schedule
from repro.gossip.config import EnhancedGossipConfig


def churn_net():
    net = build_network(
        n_peers=8, gossip=EnhancedGossipConfig.paper_f4(), organizations=2, seed=1
    )
    return net


def test_hold_out_removes_joiner_from_every_view_until_admission():
    net = churn_net()
    controller = ChurnController(net)
    controller.schedule_join(1.0, ["peer-7"])
    joiner = net.peers["peer-7"]
    assert joiner.defer_start is True
    for peer in net.peers.values():
        if peer.name != "peer-7":
            assert "peer-7" not in peer.view.org_others
            assert "peer-7" not in peer.view.channel_others
    net.start()  # held-out peers must not arm their timers
    net.sim.run(until=2.0)
    assert joiner.defer_start is False
    assert controller.peers_joined == 1
    # peer-7 sits in org1 (round-robin): org peers see it in both
    # populations, cross-org peers in the channel population only.
    assert "peer-7" in net.peers["peer-5"].view.org_others
    assert "peer-7" in net.peers["peer-0"].view.channel_others
    assert "peer-7" not in net.peers["peer-0"].view.org_others


def test_joiner_keeps_build_order_while_incumbents_list_joiners_last():
    net = churn_net()  # org1 = peer-1, peer-3, peer-5, peer-7 in build order
    controller = ChurnController(net)
    controller.schedule_join(1.0, ["peer-3"])
    joiner, incumbent = net.peers["peer-3"].view, net.peers["peer-1"].view
    # Held out: incumbents forget the joiner, the joiner's own view is
    # the untouched build-time membership.
    assert incumbent.org_others == ["peer-5", "peer-7"]
    assert joiner.org_others == ["peer-1", "peer-5", "peer-7"]
    net.start()
    net.sim.run(until=2.0)
    assert incumbent.org_others == ["peer-5", "peer-7", "peer-3"]
    assert net.peers["peer-7"].view.org_others == ["peer-1", "peer-5", "peer-3"]
    assert joiner.org_others == ["peer-1", "peer-5", "peer-7"]
    # Same for the channel population, across organizations.
    assert net.peers["peer-0"].view.channel_others[-1] == "peer-3"
    assert joiner.channel_others == [f"peer-{i}" for i in (0, 2, 4, 6, 1, 5, 7)]


def test_leave_removes_peer_for_good():
    net = churn_net()
    controller = ChurnController(net)
    net.start()
    controller.schedule_leave(1.0, ["peer-6"])
    net.sim.run(until=2.0)
    leaver = net.peers["peer-6"]
    assert leaver.departed is True
    assert controller.peers_departed == 1
    for peer in net.peers.values():
        if peer.name != "peer-6":
            assert "peer-6" not in peer.view.org_others
            assert "peer-6" not in peer.view.channel_others


def test_overlapping_leave_waves_count_each_departure_once():
    """A second wave naming peers the first already removed departs only
    the new ones: 15 names over two waves, 10 peers gone. Single-process
    and sharded runs agree on it (and so on the infection curves, whose
    denominator is the membership still expected)."""
    from repro.scenarios import get_scenario, run_scenario, run_scenario_sharded

    spec = get_scenario("mass-departure")
    spec = spec.with_overrides(
        faults=spec.faults + (LeaveEvent(at=5.0, regular_slice=(19, 24)),)
    )
    single = run_scenario(spec, seed=1)
    snapshot = single.snapshot()
    assert snapshot["resilience"]["peers_departed"] == 10
    assert sum(peer.departed for peer in single.result.net.peers.values()) == 10
    sharded = run_scenario_sharded(spec, seed=1, shards=2, mode="inline").snapshot()
    for key, value in snapshot.items():
        if key != "events_executed":
            assert sharded[key] == value, key


def test_completion_predicate_skips_departed_peers():
    net = churn_net()
    controller = ChurnController(net)
    net.start()
    controller.schedule_leave(0.5, ["peer-6"])
    net.sim.run(until=1.0)
    # Nobody holds any block, so with zero expected blocks everyone is
    # trivially complete — the departed peer must not break that.
    assert net.all_peers_received(0)
    assert not net.all_peers_received(1)


def test_sharded_controller_flips_membership_everywhere_but_lifecycle_owner_only():
    owned = frozenset({"peer-0", "peer-5", "orderer"})
    net = build_network(
        n_peers=8,
        gossip=EnhancedGossipConfig.paper_f4(),
        organizations=2,
        seed=1,
        owned=owned,
    )
    net.network.enable_shard_egress(owned, [])  # sends to other shards leave
    controller = ChurnController(net)
    net.start()
    controller.schedule_join(1.0, ["peer-7"])
    controller.schedule_leave(1.5, ["peer-6", "peer-5"])
    net.sim.run(until=1.2)
    # The joiner is foreign: no peer of it here, but its endpoint was held
    # down until the join, and this shard's views admit it...
    assert "peer-7" not in net.peers
    assert "peer-7" in net.peers["peer-5"].view.org_others
    assert "peer-7" in net.peers["peer-0"].view.channel_others
    assert controller.peers_joined == 1
    net.sim.run(until=2.0)
    # ...and every shard counts every departure, its own peers' and
    # foreign ones alike, while only its own peers are marked and stopped.
    assert controller.departed == {"peer-5", "peer-6"}
    assert controller.peers_departed == 2
    assert net.peers["peer-5"].departed and not net.peers["peer-5"].alive
    assert "peer-6" not in net.peers["peer-0"].view.channel_others


def test_join_event_compiles_through_the_schedule():
    net = churn_net()
    schedule = compile_fault_schedule(
        [JoinEvent(at=1.0, peers=("peer-7",)), LeaveEvent(at=2.0, peers=("peer-6",))],
        net,
    )
    assert len(schedule.churn) == 1  # one shared controller for all churn
    net.start()
    net.sim.run(until=3.0)
    assert schedule.peers_joined == 1
    assert schedule.peers_departed == 1


def test_churn_events_validate():
    with pytest.raises(ValueError):
        JoinEvent(at=0.0, peers=("p",))  # members from t=0 need no event
    with pytest.raises(ValueError):
        JoinEvent(at=1.0)  # no selector
    with pytest.raises(ValueError):
        LeaveEvent(at=1.0, peers=("p",), regular_slice=(0, 1))  # both selectors


def test_churn_refuses_leaders():
    net = churn_net()
    leader = sorted(net.leaders.values())[0]
    with pytest.raises(ValueError, match="leaders"):
        compile_fault_schedule([LeaveEvent(at=1.0, peers=(leader,))], net)
