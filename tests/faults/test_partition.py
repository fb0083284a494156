"""Partition and link-degrade semantics.

Satellite coverage for the declarative fault layer: a partition drops
cross-island traffic symmetrically, leaves intra-island traffic
untouched, and healing restores delivery — on both the per-copy ``send``
path and the ``multicast`` fanout path (which takes the guarded per-copy
branch whenever a drop filter is installed).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import LinkDegradeFault, PartitionFault
from repro.faults.schedule import (
    CrashEvent,
    DegradeEvent,
    PartitionEvent,
    compile_fault_schedule,
)
from repro.net.latency import ConstantLatency
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams

from tests.conftest import routes_to

NODES = ("a", "b", "c", "d", "e", "f")


def make_net(nodes=NODES):
    sim = Simulator()
    network = Network(
        sim, RandomStreams(1), NetworkConfig(latency=ConstantLatency(0.001))
    )
    inboxes = {name: [] for name in nodes}
    for name in nodes:
        network.register(name, routes_to(lambda src, msg, n=name: inboxes[n].append(src)))
    return sim, network, inboxes


def groups_of(partition_map):
    """name -> effective group id (None entries form the mainland)."""
    return {name: partition_map.get(name, -1) for name in NODES}


def deliver_all_pairs_via_send(sim, network, inboxes):
    for name in inboxes:
        inboxes[name].clear()
    for src in NODES:
        for dst in NODES:
            if src != dst:
                network.send(src, dst, RawMessage(100))
    sim.run()


def deliver_all_pairs_via_multicast(sim, network, inboxes):
    for name in inboxes:
        inboxes[name].clear()
    for src in NODES:
        network.multicast(src, [dst for dst in NODES if dst != src], RawMessage(100))
    sim.run()


@pytest.mark.parametrize("deliver", [deliver_all_pairs_via_send, deliver_all_pairs_via_multicast])
def test_partition_drops_cross_island_symmetrically(deliver):
    sim, network, inboxes = make_net()
    fault = PartitionFault(network, islands=[("a", "b"), ("c", "d")])
    deliver(sim, network, inboxes)
    group = groups_of({"a": 0, "b": 0, "c": 1, "d": 1})
    for dst in NODES:
        expected = sorted(
            src for src in NODES if src != dst and group[src] == group[dst]
        )
        assert sorted(inboxes[dst]) == expected, dst
    # Symmetric: a->c and c->a both counted as drops; 2 islands of 2 plus
    # a 2-node mainland drop 2*(2*4) + 2*2*2 = 24 cross-group messages.
    assert fault.dropped == 24


@pytest.mark.parametrize("deliver", [deliver_all_pairs_via_send, deliver_all_pairs_via_multicast])
def test_heal_restores_full_delivery(deliver):
    sim, network, inboxes = make_net()
    fault = PartitionFault(network, islands=[("a", "b", "c")])
    deliver(sim, network, inboxes)
    assert sorted(inboxes["a"]) == ["b", "c"]
    fault.heal()
    deliver(sim, network, inboxes)
    for dst in NODES:
        assert sorted(inboxes[dst]) == sorted(s for s in NODES if s != dst)
    # Drop counter stops moving once healed.
    dropped_after_heal = fault.dropped
    deliver(sim, network, inboxes)
    assert fault.dropped == dropped_after_heal


@settings(max_examples=25, deadline=None)
@given(
    assignment=st.lists(
        st.sampled_from([None, 0, 1]), min_size=len(NODES), max_size=len(NODES)
    ),
    use_multicast=st.booleans(),
)
def test_partition_property_delivery_iff_same_group(assignment, use_multicast):
    """Property: under any island assignment, a message is delivered iff
    src and dst sit in the same effective group (None = mainland)."""
    sim, network, inboxes = make_net()
    islands = {}
    for name, group in zip(NODES, assignment):
        if group is not None:
            islands.setdefault(group, []).append(name)
    PartitionFault(network, islands=list(islands.values()))
    if use_multicast:
        deliver_all_pairs_via_multicast(sim, network, inboxes)
    else:
        deliver_all_pairs_via_send(sim, network, inboxes)
    group = groups_of({n: g for n, g in zip(NODES, assignment) if g is not None})
    for dst in NODES:
        expected = sorted(
            src for src in NODES if src != dst and group[src] == group[dst]
        )
        assert sorted(inboxes[dst]) == expected


def test_partition_rejects_overlapping_islands():
    sim, network, _ = make_net()
    with pytest.raises(ValueError):
        PartitionFault(network, islands=[("a", "b"), ("b", "c")])


def test_degrade_filters_links_and_restores():
    sim, network, inboxes = make_net()
    rng = random.Random(5)
    fault = LinkDegradeFault(
        network, 1.0, rng, link_filter=lambda src, dst: {src, dst} == {"a", "b"}
    )
    deliver_all_pairs_via_send(sim, network, inboxes)
    assert "b" not in inboxes["a"] and "a" not in inboxes["b"]  # symmetric filter
    assert sorted(inboxes["c"]) == sorted(s for s in NODES if s != "c")
    fault.restore()
    deliver_all_pairs_via_send(sim, network, inboxes)
    assert sorted(inboxes["a"]) == sorted(s for s in NODES if s != "a")


def test_degrade_rejects_invalid_rate():
    sim, network, _ = make_net()
    with pytest.raises(ValueError):
        LinkDegradeFault(network, 1.5, random.Random(1))


# ----- declarative schedule validation ------------------------------------


def test_event_validation():
    with pytest.raises(ValueError):
        CrashEvent(at=5.0, recover_at=5.0, peers=("peer-1",))
    with pytest.raises(ValueError):
        CrashEvent(at=1.0)  # no selector
    with pytest.raises(ValueError):
        CrashEvent(at=1.0, peers=("p",), regular_slice=(0, 1))  # both selectors
    with pytest.raises(ValueError):
        PartitionEvent(at=1.0, islands=())
    with pytest.raises(ValueError):
        PartitionEvent(at=2.0, heal_at=1.0, islands=(("a",),))
    with pytest.raises(ValueError):
        DegradeEvent(at=1.0, loss_rate=1.5)


def test_compile_schedule_arms_partition_on_deployment():
    """End-to-end: a compiled PartitionEvent isolates peers mid-run and the
    recovery component catches them up after the heal."""
    from repro.scenarios import run_scenario

    run = run_scenario("partition-heal", seed=1)
    assert len(run.faults.partitions) == 1
    fault = run.faults.partitions[0]
    assert fault.active is False  # healed by the armed flip
    assert fault.dropped > 0
    assert run.result.coverage_complete()
    assert run.result.recovery_usage() > 0


def test_compile_schedule_resolves_regions_and_slices():
    from repro.experiments.builders import build_network
    from repro.gossip.config import EnhancedGossipConfig
    from repro.net.latency import TopologyLatency
    from repro.net.network import NetworkConfig

    config = NetworkConfig(
        latency=TopologyLatency(matrix={("east", "east"): (0.001,)})
    )
    net = build_network(
        n_peers=8,
        gossip=EnhancedGossipConfig.paper_f4(),
        organizations=2,
        network_config=config,
        org_regions={"org0": "east", "org1": "west"},
    )
    schedule = compile_fault_schedule(
        [
            PartitionEvent(at=1.0, heal_at=2.0, islands=(("west",),)),
            CrashEvent(at=1.0, recover_at=2.0, regular_slice=(0, 2)),
            DegradeEvent(at=1.0, restore_at=2.0, loss_rate=0.5),
        ],
        net,
    )
    # The region island expanded to org1's peers (odd indices).
    island = schedule.partitions[0]._group_of
    assert sorted(island) == ["peer-1", "peer-3", "peer-5", "peer-7"]
    # The slice selected the first two sorted regular peers.
    assert schedule.crashes[0][1] == net.regular_peers()[0:2]
    # The degrade filter spares the (protected) orderer and intra-region links.
    link_filter = schedule.degrades[0]._link_filter
    assert link_filter("peer-0", "peer-1") is True  # east <-> west
    assert link_filter("peer-0", "peer-2") is False  # east <-> east
    assert link_filter("orderer", "peer-1") is False  # protected


def test_compile_schedule_rejects_unknowns():
    from repro.experiments.builders import build_network
    from repro.gossip.config import EnhancedGossipConfig

    net = build_network(n_peers=4, gossip=EnhancedGossipConfig.paper_f4())
    with pytest.raises(ValueError):
        compile_fault_schedule([CrashEvent(at=1.0, peers=("nope",))], net)
    with pytest.raises(ValueError):
        compile_fault_schedule(
            [PartitionEvent(at=1.0, islands=(("not-a-region",),))], net
        )
    with pytest.raises(TypeError):
        compile_fault_schedule([object()], net)
