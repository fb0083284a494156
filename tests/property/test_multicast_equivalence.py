"""Property test: ``Network.multicast`` is observably identical to the
naive per-destination ``send`` loop.

Multicast accounts a whole fan-out in one monitor call, runs its guards
before its first latency draw and groups tied deliveries into one event.
Its contract is that *nothing observable changes*: for the same RNG seed
and the same fanout, the exact (time, dst, message) delivery sequence, the
drop counters and the monitor accounting must all equal what a per-copy
``send`` loop produces — under random fanout shapes, message sizes on both
sides of the downlink-queue threshold (including size 0, which produces
exact arrival ties and exercises the shared slot-delivery grouping),
random latency models, disconnected peers, drop faults, and handlers that
re-enter the network mid-delivery; behind a congested CoDel link with a
region-topology latency model; in sharded-egress mode; when a drop fault
raises mid-fanout; and while windowed faults flip between fan-outs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.injectors import LinkDegradeFault, PartitionFault
from repro.net.latency import (
    ConstantLatency,
    LanLatency,
    MeasuredLatency,
    TopologyLatency,
)
from repro.net.link import CoDelConfig, LinkModel, new_queue_stats, summarize_queue_accounting
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation._core.kernels import LINK_DROP_TAIL, link_enqueue
from repro.simulation.random import RandomStreams, derive_seed

from tests.conftest import DropWhen, next_draws, routes_to

NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]


def build(latency_model, queue_min, seed, link=None):
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(seed),
        NetworkConfig(
            bandwidth=1_000_000.0,
            envelope_overhead=64,
            latency=latency_model,
            downlink_queue_min_bytes=queue_min,
            link=link,
        ),
    )
    return sim, network


fanouts = st.lists(
    st.sampled_from(NODES[1:]), min_size=0, max_size=8
)  # duplicates allowed: the contract covers them too
sizes = st.sampled_from([0, 10, 2_000, 60_000])
latencies = st.sampled_from(
    [
        ("constant0", lambda: ConstantLatency(0.0)),
        ("constant", lambda: ConstantLatency(0.004)),
        ("lan", lambda: LanLatency(base=0.001, jitter_median=0.005)),
    ]
)
disconnected_sets = st.sets(st.sampled_from(NODES), max_size=2)
drop_nth = st.integers(min_value=0, max_value=9)


@settings(max_examples=120, deadline=None)
@given(
    dsts=fanouts,
    size=sizes,
    latency=latencies,
    disconnected=disconnected_sets,
    drop_every=drop_nth,
    seed=st.integers(min_value=1, max_value=8),
    reentrant=st.booleans(),
    reactive_disconnect=st.booleans(),
)
def test_multicast_equals_naive_send_loop(
    dsts, size, latency, disconnected, drop_every, seed, reentrant, reactive_disconnect
):
    """Exact (time, dst, message-id) delivery-sequence equivalence."""
    if "n0" in disconnected:
        disconnected = disconnected - {"n0"}  # keep the source sendable half the time

    results = {}
    for mode in ("multicast", "loop"):
        sim, network = build(latency[1](), 25_000 if size != 60_000 else 10_000, seed)
        message = RawMessage(size, body="payload")
        echo = RawMessage(1, kind="Echo")
        deliveries = []

        def handler(name):
            def on_message(src, msg, name=name):
                deliveries.append((sim.now, name, msg.kind))
                # Re-entrant send from inside a delivery: the echo must
                # interleave identically in both modes.
                if reentrant and msg.kind != "Echo" and name != "n1":
                    network.send(name, "n1", echo)
                # Reactive fault: a delivery handler disconnecting another
                # peer must affect later deliveries (including later
                # members of the same tie-grouped event) identically.
                if reactive_disconnect and name == "n2" and msg.kind != "Echo":
                    network.set_disconnected("n3", True)

            return on_message

        for name in NODES:
            network.register(name, routes_to(handler(name)))
        for name in disconnected:
            network.set_disconnected(name, True)
        if drop_every:
            counter = {"n": 0}

            def drop(src, dst, msg):
                counter["n"] += 1
                return counter["n"] % drop_every == 0

            DropWhen(network, drop)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        sim.run()
        totals = network.monitor.totals
        results[mode] = (
            deliveries,
            network.dropped_messages,
            totals.messages,
            totals.bytes,
            sorted(network.monitor.nodes()),
        )

    assert results["multicast"] == results["loop"]


@settings(max_examples=40, deadline=None)
@given(
    dsts=st.lists(st.sampled_from(NODES[1:]), min_size=2, max_size=8, unique=True),
    seed=st.integers(min_value=1, max_value=4),
)
def test_multicast_rng_stream_matches_send_loop(dsts, seed):
    """The RNG-order contract: after a fanout, the sender's latency
    stream must sit at exactly the same position as after a send loop, so
    subsequent traffic draws identical latencies."""
    outcomes = {}
    for mode in ("multicast", "loop"):
        sim, network = build(LanLatency(base=0.001, jitter_median=0.01), 25_000, seed)
        for name in NODES:
            network.register(name, routes_to(lambda src, msg: None))
        message = RawMessage(100)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        # Probe draws after the fanout expose the stream position.
        outcomes[mode] = next_draws(network, "latency", ["n0"])
    assert outcomes["multicast"] == outcomes["loop"]


# ----- the same oracle off the unguarded LAN path ---------------------------

# 0.3 s of serialization per 60 KB copy against a 0.75 s queue: a few
# back-to-back fanouts reach tail drops; CoDel arms after 20 ms and sheds
# at most every other copy.
CONGESTED_LINK = LinkModel(
    bandwidth=200_000.0,
    queue_bytes=150_000.0,
    codel=CoDelConfig(target=0.005, interval=0.02, max_drop_probability=0.5),
)
PLACEMENT = {"n0": "eu", "n1": "eu", "n2": "us", "n3": "us", "n4": "eu"}  # n5: nowhere


def topology_model():
    # Jittered, base-only, symmetric-fallback and default pairs all occur.
    return TopologyLatency(
        {("eu", "eu"): (0.002, 0.001, 0.5), ("eu", "us"): (0.04,), ("us", "us"): (0.003, 0.0005, 0.8)},
        default=(0.05, 0.004, 0.8),
        region_of=PLACEMENT,
    )


def measured_model():
    model = MeasuredLatency(locations=("Virginia", "Ireland", "Tokyo"))
    model.assign_regions(
        {"n0": "Virginia", "n1": "Ireland", "n2": "Tokyo", "n3": "Virginia", "n4": "Tokyo"}
    )
    return model


wan_models = st.sampled_from([topology_model, measured_model])
# One step: (source, destinations, size, simulated seconds to run afterwards).
steps = st.lists(
    st.tuples(
        st.sampled_from(NODES[:2]),
        st.lists(st.sampled_from(NODES[2:]), min_size=0, max_size=6),
        st.sampled_from([10, 2_000, 60_000]),
        st.sampled_from([0.0, 0.01, 0.4]),
    ),
    min_size=1,
    max_size=8,
)


def fan_out(network, mode, src, dsts, message):
    if mode == "loop":
        for dst in dsts:
            network.send(src, dst, message)
    else:
        network.multicast(src, dsts, message)


def record_deliveries(sim, network, owned=NODES):
    deliveries = []
    for name in NODES:
        if name in owned:
            network.register(
                name,
                routes_to(
                    lambda src, msg, name=name: deliveries.append((sim.now, name, src, msg.kind))
                ),
            )
        else:
            network.register(name, routes_to(lambda src, msg: pytest.fail("delivered to a foreign node")))
    return deliveries


def observe(network, deliveries):
    """Everything a run leaves behind, stream positions included."""
    totals = network.monitor.totals
    queues = {src: list(stats) for src, stats in network.queue_accounting().items()}
    return (
        deliveries,
        network.dropped_messages,
        totals.messages,
        totals.bytes,
        dict(totals.by_kind_bytes),
        {node: network.monitor.node_totals(node).by_kind_messages for node in NODES},
        summarize_queue_accounting(network.queue_accounting()),
        queues,
        next_draws(network, "latency", NODES),
        next_draws(network, "queue", NODES),
    )


def reference_run(script, model, seed):
    """The physics of ``build(model, 25_000, seed, link=CONGESTED_LINK)``
    written out copy by copy from the public pieces (``link_enqueue``,
    ``LatencyModel.sample``), sharing no code with ``Network``: ``send``
    is the width-1 case of the kernel ``multicast`` runs, so the loop
    oracle alone would not notice a mistake both forms make."""
    link = CONGESTED_LINK
    generators = {}

    def stream(name):
        """A plain generator of the stream's seed, one per name."""
        if name not in generators:
            generators[name] = random.Random(derive_seed(seed, name))
        return generators[name]

    uplink, queue, stats = {}, {}, {}
    copies = []  # (arrival, transfer, src, dst, two_phase) in send order
    now = 0.0
    for src, dsts, size, pause in script:
        wire = size + 64
        transfer = wire / 1_000_000.0
        for dst in dsts:
            acc = stats.setdefault(src, new_queue_stats())
            at = uplink[src] = max(uplink.get(src, 0.0), now) + transfer
            acc[0] += 1
            done = link_enqueue(
                queue.setdefault(src, [0.0, 0.0, 0.0, 0.0]),
                at,
                link.transfer_time(wire),
                *link.kernel_args(),
                stream(f"network:queue:{src}").random,
            )
            if done < 0:
                acc[1 if done == LINK_DROP_TAIL else 2] += 1
                continue
            wait = done - link.transfer_time(wire) - at
            if wait > 0:
                acc[3] += wait
                acc[4] = max(acc[4], wait)
                acc[5] += wire
            latency = model.sample(stream(f"network:latency:{src}"), src, dst)
            copies.append((done + latency, transfer, src, dst, wire >= 25_000))
        now += pause
    deliveries, downlink = [], {}
    for arrival, transfer, src, dst, two_phase in sorted(copies, key=lambda copy: copy[0]):
        if two_phase:  # downlinks are granted in arrival order
            arrival = downlink[dst] = max(downlink.get(dst, 0.0), arrival)
            downlink[dst] += transfer
        deliveries.append((arrival + transfer, dst, src, "RawMessage"))
    return sorted(deliveries), stats


@settings(max_examples=60, deadline=None)
@given(script=steps, model=wan_models, seed=st.integers(min_value=1, max_value=6))
def test_multicast_equals_send_loop_behind_a_congested_link(script, model, seed):
    """(a) Link admission, CoDel draws and topology latency draws happen
    inside the kernel; drops, queue accounting and both per-source streams
    must come out as the per-copy loop leaves them."""
    results = {}
    for mode in ("multicast", "loop"):
        sim, network = build(model(), 25_000, seed, link=CONGESTED_LINK)
        deliveries = record_deliveries(sim, network)
        for src, dsts, size, pause in script:
            fan_out(network, mode, src, dsts, RawMessage(size))
            sim.run(until=sim.now + pause)
        sim.run()
        results[mode] = observe(network, deliveries)
    assert results["multicast"] == results["loop"]
    deliveries, queues = reference_run(script, model(), seed)
    assert sorted(results["multicast"][0]) == deliveries
    assert results["multicast"][7] == queues
    assert results["multicast"][1] == sum(acc[1] + acc[2] for acc in queues.values())


@settings(max_examples=60, deadline=None)
@given(
    script=steps,
    owned_others=st.sets(st.sampled_from(NODES[2:])),
    link=st.sampled_from([None, CONGESTED_LINK]),
    seed=st.integers(min_value=1, max_value=6),
)
def test_multicast_equals_send_loop_in_sharded_egress_mode(script, owned_others, link, seed):
    """(b) A shard that owns only some destinations: foreign copies leave
    as egress records, local ones are delivered, and both forms agree on
    every record, delivery and counter."""
    owned = set(NODES[:2]) | owned_others
    results = {}
    for mode in ("multicast", "loop"):
        sim, network = build(topology_model(), 25_000, seed, link=link)
        deliveries = record_deliveries(sim, network, owned)
        egress = []
        network.enable_shard_egress(owned, egress)
        for src, dsts, size, pause in script:
            fan_out(network, mode, src, dsts, RawMessage(size))
            sim.run(until=sim.now + pause)
        sim.run()
        records = [rec[:4] + (rec[4].kind,) + rec[5:] for rec in egress]
        results[mode] = (records,) + observe(network, deliveries)
    assert results["multicast"] == results["loop"]
    assert all(rec[3] not in owned for rec in results["multicast"][0])


class FaultBroke(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(
    dsts=st.lists(st.sampled_from(NODES[1:]), min_size=1, max_size=8),
    size=st.sampled_from([10, 60_000]),
    raise_at=st.integers(min_value=1, max_value=8),
    disconnected=st.sets(st.sampled_from(NODES[1:]), max_size=2),
    link=st.sampled_from([None, CONGESTED_LINK]),
    seed=st.integers(min_value=1, max_value=6),
)
def test_a_raising_drop_fault_leaves_the_state_of_the_send_loop(
    dsts, size, raise_at, disconnected, link, seed
):
    """(c) A drop fault that raises on the k-th copy it sees: the copies
    before it are sent and recorded, nothing after it is, and the next
    fanout (probing the uplink, the link queue and the streams) agrees."""
    results = {}
    for mode in ("multicast", "loop"):
        sim, network = build(topology_model(), 25_000, seed, link=link)
        deliveries = record_deliveries(sim, network)
        for name in disconnected:
            network.set_disconnected(name, True)
        calls = []

        def drop(src, dst, message):
            calls.append(dst)
            if len(calls) == raise_at:
                raise FaultBroke(dst)
            return len(calls) % 3 == 0

        fault = DropWhen(network, drop)
        raised = False
        try:
            fan_out(network, mode, "n0", dsts, RawMessage(size))
        except FaultBroke:
            raised = True
        fault.deactivate()
        network.multicast("n0", ["n1", "n2"], RawMessage(size, kind="Probe"))
        sim.run()
        results[mode] = (raised, calls) + observe(network, deliveries)
    assert results["multicast"] == results["loop"]


@settings(max_examples=60, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.booleans(),  # partition active during this step
            st.booleans(),  # degrade active during this step
            st.lists(st.sampled_from(NODES[1:]), min_size=0, max_size=6),
        ),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=1, max_value=6),
)
def test_windowed_faults_flipping_between_fanouts(script, seed):
    """(d) The network runs its drop stage only while an armed fault is
    active. Flipping windows between fanouts must leave the arming order
    (the partition, armed first, counts a copy both would drop and spares
    the degrade draw) and the per-source ``faults:*`` stream positions
    exactly where an always-running drop stage leaves them — ``pinned``
    arms an always-active no-op fault first, which keeps the stage
    running for the whole run."""
    results = {}
    for mode in ("multicast", "loop", "pinned"):
        sim, network = build(LanLatency(base=0.001, jitter_median=0.005), 25_000, seed)
        deliveries = record_deliveries(sim, network)
        if mode == "pinned":
            DropWhen(network, lambda src, dst, message: False)
        partition = PartitionFault(network, [["n1", "n2"]], active=False)
        degrade = LinkDegradeFault(network, 0.5, network._streams, active=False)
        for partitioned, degraded, dsts in script:
            partition.active = partitioned
            degrade.active = degraded
            if mode != "pinned":
                assert network._drops_live == (partitioned or degraded)
            fan_out(network, mode, "n0", dsts, RawMessage(100))
            sim.run(until=sim.now + 0.01)
        sim.run()
        results[mode] = (
            partition.dropped,
            degrade.dropped,
            [network._streams.uniform("faults:degrade:n0").random() for _ in range(3)],
        ) + observe(network, deliveries)
    assert results["multicast"] == results["loop"] == results["pinned"]


# ----- elided copies (Network.elide) -------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(NODES[:2]),
            st.lists(st.sampled_from(NODES[2:]), min_size=0, max_size=6),
            st.sampled_from([0, 10, 2_000, 60_000]),
            st.just(0.0),
        ),
        min_size=1,
        max_size=8,
    ),
    ignore=st.sets(st.sampled_from(NODES[2:])),
    model=st.sampled_from([lambda: ConstantLatency(0.0), topology_model]),
    link=st.sampled_from([None, CONGESTED_LINK]),
    owned_others=st.none() | st.sets(st.sampled_from(NODES[2:])),
    seed=st.integers(min_value=1, max_value=6),
)
def test_an_elided_copy_keeps_every_send_time_effect(
    script, ignore, model, link, owned_others, seed
):
    """A copy its receiver would ignore is accounted, serialized, admitted
    and timed like any other and takes its sequence number; the heap is
    the one without elision minus those copies, each entry at the same
    (time, seq), and a two-phase copy is never elided. Zero latency makes
    exact ties, so ignored copies sit inside delivery groups too."""
    heaps, observed = {}, {}
    for elide in (False, True):
        # No envelope: a zero-size copy takes no time to send, so a
        # zero-latency fan-out of them ties exactly.
        sim = Simulator()
        network = Network(
            sim,
            RandomStreams(seed),
            NetworkConfig(
                bandwidth=1_000_000.0,
                envelope_overhead=0,
                latency=model(),
                downlink_queue_min_bytes=25_000,
                link=link,
            ),
        )
        for name in NODES:
            network.register(name, routes_to(lambda src, msg: None))
        egress = []
        if owned_others is not None:
            network.enable_shard_egress(set(NODES[:2]) | owned_others, egress)
        if elide:
            network.elide(
                RawMessage, lambda routes, dsts, message: [d for d in dsts if d in ignore] or None
            )
        pushed = []
        for src, dsts, size, _ in script:
            network.multicast(src, dsts, RawMessage(size))
            # Comparable across the two networks: the callback by name,
            # the message by size.
            pushed.extend(
                (time, seq, callback.__name__, sender, message.payload_size(), *rest)
                for time, seq, callback, sender, message, *rest in sim._heap
            )
            del sim._heap[:]
        heaps[elide] = sorted(pushed, key=lambda entry: entry[1])
        records = [rec[:4] + rec[5:] for rec in egress]
        observed[elide] = (records, sim._seq, sim.now) + observe(network, [])
    assert observed[True] == observed[False]
    expected = []
    for entry in heaps[False]:
        target = entry[5]
        if len(entry) == 6:  # one phase: the elidable kind
            names = target if target.__class__ is list else [target]
            names = [name for name in names if name not in ignore]
            if not names:
                continue
            target = names if len(names) > 1 else names[0]
        expected.append(entry[:5] + (target,) + entry[6:])
    assert heaps[True] == expected


def test_an_ignored_copy_in_a_tie_group_keeps_the_group_and_its_sequence_number():
    """Zero-size copies with zero latency all tie: the ignored names leave
    the group's list, and a group of ignored names only is not pushed but
    still takes its sequence number."""
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(1),
        NetworkConfig(envelope_overhead=0, latency=ConstantLatency(0.0)),
    )
    for name in NODES:
        network.register(name, routes_to(lambda src, msg: None))
    ignore = {"n3"}
    network.elide(RawMessage, lambda routes, dsts, message: [d for d in dsts if d in ignore] or None)
    network.multicast("n0", ["n2", "n3", "n4"], RawMessage(0))
    network.multicast("n0", ["n3"], RawMessage(0))
    network.multicast("n0", ["n3", "n2"], RawMessage(0))
    assert [(entry[1], entry[5]) for entry in sorted(sim._heap)] == [(0, ["n2", "n4"]), (2, "n2")]
    assert sim._seq == 3
