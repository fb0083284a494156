"""Digest elision is exact: a scenario's snapshot is the one it has with
every digest delivered, ``events_executed`` aside.

A deployment whose spec declares no fault event lets its network skip the
delivery of a :class:`PushDigest` its receiver would ignore
(:func:`repro.scenarios.runner.arm`, docs/networking.md, "Delivery").
Forcing elision off is replacing :meth:`Network.elide` by a no-op.
"""

import pytest

from repro.experiments.dissemination import deploy
from repro.faults.schedule import CrashEvent, JoinEvent, LeaveEvent
from repro.gossip.messages import PushDigest
from repro.gossip.push_infect_contagion import InfectUponContagionPush, ignored_digests
from repro.net.network import Network
from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.scenarios import runner
from repro.scenarios.runner import arm, dissemination_config
from repro.scenarios.sharded import run_scenario_sharded
from repro.simulation import SimulationError


def _without_events(snapshot):
    return {key: value for key, value in snapshot.items() if key != "events_executed"}


@pytest.fixture
def elision_off(monkeypatch):
    def off():
        monkeypatch.setattr(Network, "elide", lambda self, message_class, ignored: None)

    return off


@pytest.mark.parametrize("name", scenario_names())
def test_a_scenario_gives_the_same_snapshot_with_elision_on_and_off(name, elision_off):
    """At ``shards=1`` and ``shards=2`` inline. A spec with fault events
    never arms elision, so its runs are today's to the event."""
    spec = get_scenario(name)
    if spec.faults:
        net = deploy(dissemination_config(spec), lambda net: arm(spec, net))
        assert net.network._ignores is None
        return
    single = run_scenario(name).snapshot()
    sharded = run_scenario_sharded(name, shards=2, mode="inline").snapshot()
    elision_off()
    reference = run_scenario(name).snapshot()
    assert _without_events(single) == _without_events(reference)
    assert _without_events(sharded) == _without_events(reference)
    assert single["events_executed"] <= reference["events_executed"]


# golden-enhanced-50 at seed 1: its first block's digests are in flight at
# 1.695 s, among them copies the three peers would ignore.
_IN_FLIGHT_AT = 1.695
_PEERS = ("peer-21", "peer-41", "peer-44")


def _ignorable_in_flight(net, names):
    """Pending digest deliveries to ``names`` that their receiver would
    ignore."""
    count = 0
    for entry in net.sim._heap:
        if len(entry) == 6 and entry[4].__class__ is PushDigest:
            targets = entry[5] if entry[5].__class__ is list else [entry[5]]
            for name in targets:
                if name in names and ignored_digests(net.network._routes, [name], entry[4]):
                    count += 1
    return count


@pytest.mark.parametrize(
    "faults",
    [
        (CrashEvent(at=_IN_FLIGHT_AT, recover_at=4.0, peers=_PEERS),),
        (LeaveEvent(at=_IN_FLIGHT_AT, peers=_PEERS), JoinEvent(at=3.0, peers=("peer-30",))),
    ],
    ids=["crash-and-recover", "leave-and-join"],
)
def test_digests_in_flight_to_a_node_that_disconnects_are_dropped_as_before(
    faults, elision_off, monkeypatch
):
    """Copies a receiver would ignore are in flight when it crashes or
    leaves: they count in ``dropped_messages`` at delivery, as they do with
    every digest delivered, because a spec with faults does not elide.
    Eliding there anyway is refused at the disconnect."""
    spec = get_scenario("golden-enhanced-50").with_overrides(name="in-flight", faults=faults)
    in_flight = []

    def prepare(net):
        # Scheduled before the faults are armed: runs just before them.
        net.sim.schedule_at(
            _IN_FLIGHT_AT, lambda: in_flight.append(_ignorable_in_flight(net, _PEERS))
        )
        arm(spec, net)

    net = deploy(dissemination_config(spec), prepare)
    net.sim.run(until=_IN_FLIGHT_AT)
    assert net.network._ignores is None
    assert in_flight[0] > 0

    today = run_scenario(spec).snapshot()
    assert today["dropped_messages"] > 0

    def always_elide(spec, net):
        net.network.elide(PushDigest, ignored_digests)
        return runner.compile_fault_schedule(spec.faults, net)

    with monkeypatch.context() as patched:
        patched.setattr(runner, "arm", always_elide)
        with pytest.raises(SimulationError, match="elides"):
            run_scenario(spec)

    elision_off()
    assert run_scenario(spec).snapshot() == today


def test_digest_liars_keep_every_digest_event(elision_off):
    """A liar's digest route is not the stock handler: no copy to it is
    ever named, not even one past the TTL for a block it holds, and the
    scenario keeps every event."""
    run = run_scenario("digest-liars")
    today = run.snapshot()
    net = run.result.net
    routes = net.network._routes
    holders = sorted(name for name, peer in net.peers.items() if peer.get_block(0))
    liars = [
        name for name in holders
        if net.peers[name].route_table[PushDigest][1] is not InfectUponContagionPush.on_digest
    ]
    honest = [name for name in holders if name not in liars]
    assert liars and honest
    past_ttl = PushDigest(0, "h", net.peers[holders[0]].gossip.push.ttl + 1)
    assert ignored_digests(routes, liars, past_ttl) is None
    assert ignored_digests(routes, liars + honest, past_ttl) == honest
    elision_off()
    assert run_scenario("digest-liars").snapshot() == today


def test_a_digest_is_ignored_only_by_a_holder_that_saw_its_pair():
    """The predicate is ``on_digest``'s no-op case: the block held and the
    pair seen, or the counter past the TTL."""
    spec = get_scenario("golden-enhanced-50")
    net = deploy(dissemination_config(spec))
    net.sim.run(until=1.0)  # before the first block
    routes = net.network._routes
    names = sorted(net.peers)
    ttl = net.peers[names[0]].gossip.push.ttl
    assert ignored_digests(routes, names, PushDigest(0, "h", 1)) is None
    net.sim.run(until=3.0)  # every peer holds block 0
    holders = [name for name in names if net.peers[name].get_block(0) is not None]
    assert holders == names
    for counter in range(ttl + 1):
        saw = [name for name in names if net.peers[name].gossip.push._seen_pairs[0] >> counter & 1]
        assert ignored_digests(routes, names, PushDigest(0, "h", counter)) == (saw or None)
    assert ignored_digests(routes, names, PushDigest(0, "h", ttl + 1)) == names
    assert ignored_digests(routes, names, PushDigest(2, "h", 1)) is None  # not cut yet
    assert ignored_digests(routes, ["orderer", "nobody"], PushDigest(0, "h", ttl + 1)) is None


def test_an_eliding_network_refuses_to_disconnect_or_rewire_a_node():
    spec = get_scenario("golden-enhanced-50")
    net = deploy(dissemination_config(spec), lambda net: arm(spec, net))
    network = net.network
    with pytest.raises(SimulationError, match="elides"):
        network.set_routes("peer-3", (dict(network._routes["peer-3"][0]),))
    with pytest.raises(SimulationError, match="elides"):
        network.set_disconnected("peer-3", True)
    network.set_disconnected("peer-3", False)
    network.set_routes("peer-3", network._routes["peer-3"])
    assert network._n_disconnected == 0
    # Through the peer: each refusal comes before the peer changes, so it
    # stays alive, connected and on the routes the network holds.
    peer = net.peers["peer-3"]
    with pytest.raises(SimulationError, match="elides"):
        peer.crash()
    assert peer.alive and peer._timers
    assert network._n_disconnected == 0
    assert peer._routes is network._routes["peer-3"]
    with pytest.raises(SimulationError, match="elides"):
        peer.route_table = dict(peer.route_table)
    assert peer.alive
    assert peer._routes is network._routes["peer-3"]
