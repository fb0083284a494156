"""Property suite: process-sharded execution ≡ single-process execution.

Two layers of evidence:

* **network level** — a script of explicit sends/multicasts is replayed
  once on a single simulator and once across manually driven shard
  simulators under the conservative window protocol. The per-destination
  (time, src, kind) delivery sequences must match exactly — under random
  fanout shapes, message sizes on both sides of the downlink-queue
  threshold, drops (disconnects, partitions crossing the shard
  boundary), re-entrant handler sends, and **exact-tie arrivals at
  window edges** engineered with dyadic (binary-exact) latencies;

* **scenario level** — full gossip scenarios (WAN topology, partition
  faults crossing shard boundaries, crash/recover churn) replayed via
  :func:`repro.scenarios.sharded.run_scenario_sharded` must reproduce the
  single-process snapshot bit-for-bit on every metric except the
  engine-internal ``events_executed`` (see docs/sharding.md).

Tie-order contract (documented in docs/sharding.md): deliveries at the
same instant to the *same* destination from different sources order
canonically in sharded mode — locally produced events first, then
injected records by (time, source shard, send order). Single-process
order is send-execution order, so the suite engineers its same-
destination ties with the local send executing first, where both modes
provably agree; continuous-jitter runs (every committed scenario) have no
cross-shard ties at all.
"""

from __future__ import annotations

from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.injectors import PartitionFault
from repro.net.latency import ConstantLatency, LanLatency
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams

from tests.conftest import routes_to

NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]

# Binary-exact physics for the engineered-tie tests: every quantity is a
# dyadic rational, so sums reconstruct exactly and "delivery time equals
# window barrier" is a precise statement, not a float accident.
DYADIC_BANDWIDTH = float(2**20)
DYADIC_LATENCY = 0.0625  # 2**-4
DYADIC_SIZE = 2_048  # transfer = 2**-9 with zero overhead


def _build(seed, latency_model, bandwidth=1_000_000.0, overhead=64, queue_min=25_000):
    sim = Simulator()
    network = Network(
        sim,
        RandomStreams(seed),
        NetworkConfig(
            bandwidth=bandwidth,
            envelope_overhead=overhead,
            latency=latency_model,
            downlink_queue_min_bytes=queue_min,
        ),
    )
    return sim, network


def _recording_handler(sim, log, name):
    def on_message(src, message):
        log.setdefault(name, []).append((sim.now, src, message.kind))

    return on_message


def _apply_script(sim, network, script, only_srcs=None):
    """Schedule the script's sends; ``only_srcs`` restricts to owned ones."""
    for when, src, dsts, message in script:
        if only_srcs is not None and src not in only_srcs:
            continue
        if len(dsts) == 1:
            sim.schedule_at(when, network.send, src, dsts[0], message)
        else:
            sim.schedule_at(when, network.multicast, src, dsts, message)


def _run_single(script, seed, latency_model, horizon, faults=None, **net_kwargs):
    sim, network = _build(seed, latency_model, **net_kwargs)
    log: dict = {}
    for name in NODES:
        network.register(name, routes_to(_recording_handler(sim, log, name)))
    if faults:
        faults(sim, network)
    _apply_script(sim, network, script)
    sim.run(until=horizon)
    return log, network.dropped_messages, network.monitor.totals


def _run_sharded(
    script, seed, latency_model, horizon, owner_of, lookahead, faults=None, **net_kwargs
):
    """Drive shard simulators through the window protocol by hand."""
    shards = sorted(set(owner_of.values()))
    sims, nets, logs, egresses = {}, {}, {}, {}
    for shard in shards:
        sim, network = _build(seed, latency_model, **net_kwargs)
        owned = frozenset(n for n, s in owner_of.items() if s == shard)
        log: dict = {}
        for name in NODES:
            if name in owned:
                network.register(name, routes_to(_recording_handler(sim, log, name)))
            else:
                def reject(src, message, name=name, shard=shard):
                    raise AssertionError(
                        f"shard {shard} delivered to foreign node {name}"
                    )

                network.register(name, routes_to(reject))
        egress: list = []
        network.enable_shard_egress(owned, egress)
        if faults:
            faults(sim, network)
        _apply_script(sim, network, script, only_srcs=owned)
        sims[shard], nets[shard], logs[shard], egresses[shard] = sim, network, log, egress
    m = max(1, ceil(1.0 / lookahead))
    pending = {shard: [] for shard in shards}
    j = 0
    while True:
        j += 1
        barrier = j / m
        final = barrier >= horizon
        end = horizon if final else barrier
        for shard in shards:
            batch = pending[shard]
            if batch:
                batch.sort(key=lambda record: record[1])
                nets[shard].inject_shard_records(batch)
                pending[shard] = []
            if final:
                sims[shard].run(until=end)
            else:
                sims[shard].run_window(end)
            for record in egresses[shard]:
                pending[owner_of[record[3]]].append(record)
            egresses[shard].clear()
        if final:
            # One more exchange so window-edge records landing exactly at
            # the horizon still deliver, as they do single-process.
            leftovers = any(pending[shard] for shard in shards)
            if not leftovers:
                break
            for shard in shards:
                batch = pending[shard]
                if batch:
                    batch.sort(key=lambda record: record[1])
                    nets[shard].inject_shard_records(batch)
                    pending[shard] = []
                sims[shard].run(until=end)
                assert not egresses[shard]
            break
    merged_log: dict = {}
    for shard in shards:
        merged_log.update(logs[shard])
    dropped = sum(nets[shard].dropped_messages for shard in shards)
    base = nets[shards[0]].monitor
    for shard in shards[1:]:
        base.merge_from(nets[shard].monitor)
    return merged_log, dropped, base.totals


def _totals_key(totals):
    return (totals.messages, totals.bytes, dict(sorted(totals.by_kind_bytes.items())))


def _canonicalize_ties(log):
    """Sort each destination's same-instant delivery group.

    Deliveries at *distinct* times keep their order (the sort is stable
    on the time key). Within an exact same-time tie to one destination,
    single-process order is send-execution order while sharded order is
    the canonical local-then-injected order (docs/sharding.md), so the
    random-script properties compare tie groups as sorted sets; the
    dedicated engineered-tie tests pin exact orders where the two
    coincide. Continuous-jitter runs — every committed scenario — have
    no cross-shard ties, which the golden gate checks bit-for-bit.
    """
    return {
        dst: sorted(entries, key=lambda entry: (entry[0], entry[1], entry[2]))
        for dst, entries in log.items()
    }


OWNER_RR = {name: index % 2 for index, name in enumerate(NODES)}


def _tie_free_script(raw, make_message):
    """Build a send script, dropping destination copies that would tie.

    Two copies arriving at one destination at the same physical instant
    are serialized by its downlink in an order the sharded form may
    legitimately swap — the documented measure-zero divergence
    (docs/sharding.md) that ``_canonicalize_ties`` cannot absorb when
    the tied copies came from *different sources* (delivery times get
    attributed to swapped senders). Under the constant-latency model an
    exact arrival tie requires identical ``(send time, size)``: send
    times are dyadic float16s while transfer-time differences
    (2·Δsize/bandwidth) are non-dyadic, so distinct pairs can never
    collide. Dropping duplicate ``(when, size, destination)`` triples
    therefore makes generated scripts tie-free without losing any other
    coverage; the engineered-tie tests below cover exact ties on
    purpose-built dyadic physics instead.
    """
    script = []
    seen = set()
    for when, src, dsts, size in raw:
        kept = []
        for dst in dsts:
            if dst == src or (when, size, dst) in seen:
                continue
            seen.add((when, size, dst))
            kept.append(dst)
        if kept:
            script.append((when, src, kept, make_message(size)))
    return script


sends = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False, width=16),
        st.sampled_from(NODES),
        st.lists(st.sampled_from(NODES), min_size=1, max_size=4),
        st.sampled_from([100, 2_000, 60_000]),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(
    raw=sends,
    seed=st.integers(min_value=1, max_value=6),
    latency=st.sampled_from(["constant", "lan"]),
    disconnect=st.sampled_from([None, "n3", "n4"]),
)
def test_sharded_script_equals_single_process(raw, seed, latency, disconnect):
    """Random send scripts: per-destination delivery sequences, drop
    counters and monitor totals all match across the shard boundary."""
    model = (
        ConstantLatency(0.05)
        if latency == "constant"
        else LanLatency(base=0.02, jitter_median=0.01)
    )
    lookahead = 0.05 if latency == "constant" else 0.02
    script = _tie_free_script(raw, lambda size: RawMessage(size, body="payload"))
    if not script:
        return

    def faults(sim, network):
        if disconnect is not None:
            sim.schedule_at(0.75, network.set_disconnected, disconnect, True)
            sim.schedule_at(1.5, network.set_disconnected, disconnect, False)

    single = _run_single(script, seed, model, horizon=4.0, faults=faults)
    sharded = _run_sharded(
        script, seed, model, horizon=4.0, owner_of=OWNER_RR,
        lookahead=lookahead, faults=faults,
    )
    assert _canonicalize_ties(single[0]) == _canonicalize_ties(sharded[0])
    assert single[1] == sharded[1]
    assert _totals_key(single[2]) == _totals_key(sharded[2])


@settings(max_examples=30, deadline=None)
@given(
    raw=sends,
    seed=st.integers(min_value=1, max_value=4),
    island=st.sets(st.sampled_from(NODES), min_size=1, max_size=3),
)
def test_sharded_partition_crossing_shard_boundary(raw, seed, island):
    """A partition whose islands straddle the shard boundary drops the
    same copies, at the same instants, on both execution forms."""
    model = ConstantLatency(0.04)
    script = _tie_free_script(raw, RawMessage)
    if not script:
        return

    def faults(sim, network):
        fault = PartitionFault(network, [sorted(island)], active=False)
        sim.schedule_at(0.5, fault.activate)
        sim.schedule_at(1.5, fault.deactivate)

    single = _run_single(script, seed, model, horizon=4.0, faults=faults)
    sharded = _run_sharded(
        script, seed, model, horizon=4.0, owner_of=OWNER_RR,
        lookahead=0.04, faults=faults,
    )
    assert _canonicalize_ties(single[0]) == _canonicalize_ties(sharded[0])
    assert single[1] == sharded[1]
    assert _totals_key(single[2]) == _totals_key(sharded[2])


def test_exact_tie_arrival_at_window_edge():
    """Deliveries landing exactly ON a window barrier (dyadic physics)
    reproduce the single-process sequence bit-for-bit.

    Two sources on different shards each send to a destination on the
    other shard, timed so both copies deliver at exactly t=1.0 — a
    barrier of the m=16 grid. The records are injected at the barrier and
    must still deliver at their exact time, in send order.
    """
    transfer = DYADIC_SIZE / DYADIC_BANDWIDTH  # 2**-9, exact
    # Single-phase delivery time = send + 2 * transfer + latency.
    send_at = 1.0 - DYADIC_LATENCY - 2 * transfer
    script = [
        (send_at, "n0", ["n3"], RawMessage(DYADIC_SIZE, kind="A")),  # shard 0 -> 1
        (send_at, "n1", ["n2"], RawMessage(DYADIC_SIZE, kind="B")),  # shard 1 -> 0
    ]
    kwargs = dict(bandwidth=DYADIC_BANDWIDTH, overhead=0, queue_min=100_000)
    single = _run_single(script, 1, ConstantLatency(DYADIC_LATENCY), 2.0, **kwargs)
    sharded = _run_sharded(
        script, 1, ConstantLatency(DYADIC_LATENCY), 2.0,
        owner_of=OWNER_RR, lookahead=DYADIC_LATENCY, **kwargs,
    )
    assert single[0] == sharded[0]
    # The engineered times really do land on the barrier exactly.
    (time_a, _, _), = single[0]["n3"]
    assert time_a == 1.0


def test_exact_tie_same_destination_local_send_first():
    """Same-destination tie where the local copy was sent first: both
    forms deliver local-then-remote (the canonical order coincides with
    send-execution order here)."""
    transfer = DYADIC_SIZE / DYADIC_BANDWIDTH
    # Local copy (n2 -> n0, same shard 0): send + 2*transfer + L = 1.0.
    local_send = 1.0 - DYADIC_LATENCY - 2 * transfer
    # Remote copy (n1 on shard 1 -> n0), sent strictly later but arriving
    # at the same instant via a shorter uplink (half-size message):
    remote_transfer = (DYADIC_SIZE // 2) / DYADIC_BANDWIDTH
    remote_send = 1.0 - DYADIC_LATENCY - 2 * remote_transfer
    assert local_send < remote_send
    script = [
        (local_send, "n2", ["n0"], RawMessage(DYADIC_SIZE, kind="Local")),
        (remote_send, "n1", ["n0"], RawMessage(DYADIC_SIZE // 2, kind="Remote")),
    ]
    kwargs = dict(bandwidth=DYADIC_BANDWIDTH, overhead=0, queue_min=100_000)
    single = _run_single(script, 1, ConstantLatency(DYADIC_LATENCY), 2.0, **kwargs)
    sharded = _run_sharded(
        script, 1, ConstantLatency(DYADIC_LATENCY), 2.0,
        owner_of=OWNER_RR, lookahead=DYADIC_LATENCY, **kwargs,
    )
    assert single[0] == sharded[0]
    times = [t for t, _, _ in single[0]["n0"]]
    kinds = [k for _, _, k in single[0]["n0"]]
    assert times == [1.0, 1.0]
    assert kinds == ["Local", "Remote"]


def test_reentrant_handler_send_crosses_shards():
    """A handler that answers a delivery with a cross-shard send produces
    the identical echo sequence in both forms."""
    model = ConstantLatency(0.05)
    echo = RawMessage(64, kind="Echo")

    def run(mode):
        if mode == "single":
            sim, network = _build(3, model)
            shard_nets = {0: (sim, network)}
            owner = {name: 0 for name in NODES}
        else:
            shard_nets = {
                shard: _build(3, model) for shard in (0, 1)
            }
            owner = OWNER_RR
        logs: dict = {}

        def handler(sim, network, name):
            def on_message(src, message):
                logs.setdefault(name, []).append((sim.now, src, message.kind))
                if message.kind != "Echo":
                    network.send(name, src, echo)

            return on_message

        egresses = {}
        for shard, (sim, network) in shard_nets.items():
            owned = frozenset(n for n, s in owner.items() if s == shard)
            for name in NODES:
                if name in owned:
                    network.register(name, routes_to(handler(sim, network, name)))
                else:
                    network.register(name, routes_to(lambda src, msg: None))
            if mode != "single":
                egress: list = []
                network.enable_shard_egress(owned, egress)
                egresses[shard] = egress
            _apply_script(
                sim, network,
                [(0.25, "n0", ["n1", "n2", "n3"], RawMessage(512, kind="Ping"))],
                only_srcs=owned if mode != "single" else None,
            )
        if mode == "single":
            shard_nets[0][0].run(until=3.0)
            return logs
        m = ceil(1.0 / 0.05)
        pending = {0: [], 1: []}
        for j in range(1, 3 * m + 1):
            end = j / m
            for shard in (0, 1):
                sim, network = shard_nets[shard]
                batch = pending[shard]
                if batch:
                    batch.sort(key=lambda record: record[1])
                    network.inject_shard_records(batch)
                    pending[shard] = []
                if j == 3 * m:
                    sim.run(until=3.0)
                else:
                    sim.run_window(end)
                for record in egresses[shard]:
                    pending[owner[record[3]]].append(record)
                egresses[shard].clear()
        return logs

    assert run("single") == run("sharded")


# ----- scenario level ------------------------------------------------------


SCENARIO_CASES = [
    ("wan-3-region", 1, 2),
    ("wan-3-region", 3, 3),
    ("partition-heal", 1, 2),
    ("partition-heal", 2, 4),
    ("churn-flux", 2, 3),
]


@pytest.mark.parametrize("name,seed,shards", SCENARIO_CASES)
def test_scenario_sharded_equals_single(name, seed, shards):
    """Full gossip scenarios reproduce the single-process snapshot
    bit-for-bit on every metric except events_executed."""
    from repro.perf.regression import SHARD_VARIANT_KEYS
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.sharded import run_scenario_sharded

    single = run_scenario(name, seed=seed).snapshot()
    run = run_scenario_sharded(name, seed=seed, shards=shards, mode="inline")
    assert run.plan.shards > 1, run.plan.forced_reason
    snap = run.snapshot()
    for key, value in single.items():
        if key in SHARD_VARIANT_KEYS:
            continue
        assert snap[key] == value, key


def test_scenario_process_mode_equals_inline_mode():
    from repro.scenarios.sharded import run_scenario_sharded

    inline = run_scenario_sharded(
        "golden-original-30", seed=1, shards=3, mode="inline"
    ).snapshot()
    procs = run_scenario_sharded(
        "golden-original-30", seed=1, shards=3, mode="processes"
    ).snapshot()
    assert inline == procs
