"""Property test: ``Network.multicast`` is observably identical to the
naive per-destination ``send`` loop.

The multicast fast path exists purely for mechanical speed (vectorized
monitor records, batch latency sampling, pooled grouped delivery events).
Its contract is that *nothing observable changes*: for the same RNG seed
and the same fanout, the exact (time, dst, message) delivery sequence, the
drop counters and the monitor accounting must all equal what a per-copy
``send`` loop produces — under random fanout shapes, message sizes on both
sides of the downlink-queue threshold (including size 0, which produces
exact arrival ties and exercises the shared slot-delivery grouping),
random latency models, disconnected peers, drop filters, and handlers that
re-enter the network mid-delivery.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams

NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]


def build(latency_model, queue_min, seed):
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(seed),
        NetworkConfig(
            bandwidth=1_000_000.0,
            envelope_overhead=64,
            latency=latency_model,
            downlink_queue_min_bytes=queue_min,
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
        ("uniform", lambda: UniformLatency(0.001, 0.02)),
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
            network.register(name, handler(name))
        for name in disconnected:
            network.set_disconnected(name, True)
        if drop_every:
            counter = {"n": 0}

            def drop(src, dst, msg):
                counter["n"] += 1
                return counter["n"] % drop_every == 0

            network.set_drop_filter(drop)
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
        sim, network = build(UniformLatency(0.001, 0.05), 25_000, seed)
        for name in NODES:
            network.register(name, lambda src, msg: None)
        message = RawMessage(100)
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        # A probe draw after the fanout exposes the stream position.
        outcomes[mode] = network.latency_rng("n0").random()
    assert outcomes["multicast"] == outcomes["loop"]
