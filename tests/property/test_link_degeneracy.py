"""Property suite: the link model degenerates *exactly*.

Three layers of the claim, strongest first:

1. A no-op :class:`LinkModel` (infinite bandwidth — the default) leaves a
   :class:`Network` observably untouched: identical delivery sequences,
   drop counters, monitor totals *and* RNG stream positions, under random
   traffic mixing ``send`` / ``multicast`` / ``send_aggregate``.
2. With the link *armed* (finite bandwidth), ``multicast`` still equals
   the naive per-destination ``send`` loop — serialization delay,
   queueing and CoDel/tail drops included — so the fast path never buys
   divergence.
3. Every pre-link determinism golden replays bit-for-bit when its
   scenario is re-run with an explicit no-op link attached: the committed
   golden file *is* the baseline, so any residual link effect on the
   legacy scenarios fails loudly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.latency import ConstantLatency, LanLatency
from repro.net.link import CoDelConfig, LinkModel
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.perf.regression import GOLDEN_METRICS, GOLDEN_SCENARIOS
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import run_scenario
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams

from tests.conftest import routes_to

NODES = ["n0", "n1", "n2", "n3", "n4"]

NOOP_LINKS = [
    None,
    LinkModel(),  # default: infinite bandwidth
    # Queueing/AQM knobs set but bandwidth infinite: still provably inert.
    LinkModel(queue_bytes=5.0, codel=CoDelConfig(target=0.001, interval=0.01)),
]


def build(link, seed, latency=None):
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(seed),
        NetworkConfig(
            bandwidth=1_000_000.0,
            envelope_overhead=64,
            latency=latency or LanLatency(base=0.001, jitter_median=0.005),
            downlink_queue_min_bytes=25_000,
            link=link,
        ),
    )
    deliveries = []
    for name in NODES:
        network.register(
            name,
            routes_to(lambda src, msg, name=name: deliveries.append((sim.now, name, msg.kind))),
        )
    return sim, network, deliveries


# One traffic op: (kind, src-index, dst-indexes, size)
ops = st.lists(
    st.tuples(
        st.sampled_from(["send", "multicast", "aggregate"]),
        st.integers(min_value=0, max_value=len(NODES) - 1),
        st.lists(
            st.integers(min_value=0, max_value=len(NODES) - 1),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0, 10, 2_000, 60_000]),
    ),
    min_size=1,
    max_size=10,
)


def drive(network, sim, schedule):
    for kind, src_i, dst_is, size in schedule:
        src = NODES[src_i]
        dsts = [NODES[i] for i in dst_is if i != src_i]
        message = RawMessage(size, kind="Op")
        if kind == "send" and dsts:
            network.send(src, dsts[0], message)
        elif kind == "multicast":
            network.multicast(src, dsts, message)
        elif dsts:
            network.send_aggregate(src, dsts, message)
        sim.run(until=sim.now + 0.005)
    sim.run()


def observables(network, deliveries):
    totals = network.monitor.totals
    return (
        deliveries,
        network.dropped_messages,
        totals.messages,
        totals.bytes,
        dict(totals.by_kind_bytes),
        # Stream-position probes: a no-op link must consume zero RNG from
        # both the latency and the queue streams.
        [network.latency_rng(name).random() for name in NODES],
        [
            network._streams.stream(f"network:queue:{name}").random()
            for name in NODES
        ],
    )


@settings(max_examples=60, deadline=None)
@given(schedule=ops, seed=st.integers(min_value=1, max_value=6))
def test_noop_link_is_bit_for_bit_invisible(schedule, seed):
    results = []
    for link in NOOP_LINKS:
        sim, network, deliveries = build(link, seed)
        assert (link is None) == (network._link is None) or link.is_noop
        drive(network, sim, schedule)
        results.append(observables(network, deliveries))
    assert results[0] == results[1] == results[2]


@settings(max_examples=60, deadline=None)
@given(
    dsts=st.lists(st.sampled_from(NODES[1:]), min_size=1, max_size=6),
    size=st.sampled_from([0, 2_000, 60_000, 400_000]),
    seed=st.integers(min_value=1, max_value=6),
    codel=st.booleans(),
)
def test_multicast_equals_send_loop_with_armed_link(dsts, size, seed, codel):
    """Fast-path equivalence survives link physics: same deliveries, same
    drops, same RNG stream positions as the naive loop."""
    link = LinkModel(
        bandwidth=500_000.0,
        queue_bytes=300_000.0,
        codel=CoDelConfig() if codel else None,
    )
    outcomes = {}
    for mode in ("multicast", "loop"):
        sim, network, deliveries = build(link, seed, latency=ConstantLatency(0.004))
        message = RawMessage(size, body="payload")
        if mode == "multicast":
            network.multicast("n0", dsts, message)
        else:
            for dst in dsts:
                network.send("n0", dst, message)
        sim.run()
        outcomes[mode] = observables(network, deliveries)
    assert outcomes["multicast"] == outcomes["loop"]


def test_armed_link_reports_enabled_and_noop_does_not():
    _, armed, _ = build(LinkModel(bandwidth=1e6), seed=1)
    _, inert, _ = build(LinkModel(), seed=1)
    assert armed.link_summary()["enabled"] is True
    assert inert.link_summary()["enabled"] is False


# Congestion goldens arm the link by design; only link-free scenarios can
# take a no-op link unchanged.
LINK_FREE_GOLDENS = sorted(
    name for name, (scenario, _) in GOLDEN_SCENARIOS.items()
    if get_scenario(scenario).link is None
)


@pytest.mark.parametrize("golden_name", LINK_FREE_GOLDENS)
def test_goldens_replay_with_explicit_noop_link(golden_name):
    """Re-run every link-free golden scenario with ``link=LinkModel()``
    forced onto the spec; the committed golden metrics are the baseline."""
    golden = GOLDEN_METRICS.get(golden_name)
    assert golden, "golden metrics missing — run scripts/perf_gate.py --update-goldens-only"
    scenario, seed = GOLDEN_SCENARIOS[golden_name]
    spec = get_scenario(scenario)
    noop_spec = dataclasses.replace(spec, link=LinkModel())
    snapshot = run_scenario(noop_spec, seed=seed).snapshot()
    for key, expected in golden.items():
        if key == "link":
            # The no-op link stays disarmed: all-zero accounting.
            assert snapshot["link"] == expected
            continue
        assert snapshot[key] == expected, f"{golden_name}: {key} diverged"
