"""Unit tests for the simulated network (delivery, serialization, faults)."""

import tracemalloc
from types import SimpleNamespace

import pytest

from repro.net.latency import ConstantLatency
from repro.net.message import RawMessage
from repro.net.network import Network, NetworkConfig
from repro.simulation.random import RandomStreams

from tests.conftest import routes_to


def make_network(sim, bandwidth=1_000_000.0, latency=0.010, overhead=0, queue_min=0):
    config = NetworkConfig(
        bandwidth=bandwidth,
        envelope_overhead=overhead,
        latency=ConstantLatency(latency),
        downlink_queue_min_bytes=queue_min,
    )
    return Network(sim, RandomStreams(1), config)


def register_sink(network, name):
    inbox = []
    network.register(name, routes_to(lambda src, msg: inbox.append((src, msg))))
    return inbox


def test_basic_delivery(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.send("a", "b", RawMessage(100))
    sim.run()
    assert len(inbox) == 1
    assert inbox[0][0] == "a"


def test_delivery_time_includes_transfer_and_latency(sim):
    # 1 MB/s bandwidth: 10_000 bytes = 10 ms uplink + 10 ms downlink + 10 ms latency.
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.010)
    register_sink(network, "a")
    times = []
    network.register("b", routes_to(lambda src, msg: times.append(sim.now)))
    network.send("a", "b", RawMessage(10_000))
    sim.run()
    assert times[0] == pytest.approx(0.030)


def test_uplink_serialization_queues_bursts(sim):
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0)
    register_sink(network, "a")
    times = {}
    for name in ("b", "c"):
        network.register(name, routes_to(lambda src, msg, n=name: times.setdefault(n, sim.now)))
    # Two 10 ms transfers sent back to back from the same NIC.
    network.send("a", "b", RawMessage(10_000))
    network.send("a", "c", RawMessage(10_000))
    sim.run()
    # First: 10 ms uplink + 10 ms downlink; second queued behind the first
    # uplink: starts at 10 ms, arrives at 20 ms + its own downlink.
    assert times["b"] == pytest.approx(0.020)
    assert times["c"] == pytest.approx(0.030)


def test_downlink_serialization_at_receiver(sim):
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0)
    register_sink(network, "a")
    register_sink(network, "b")
    times = []
    network.register("c", routes_to(lambda src, msg: times.append(sim.now)))
    network.send("a", "c", RawMessage(10_000))
    network.send("b", "c", RawMessage(10_000))
    sim.run()
    # Both uplinks parallel (different NICs) finishing at 10 ms; receiver
    # serializes the two downlinks.
    assert times == pytest.approx([0.020, 0.030])


def test_downlink_queue_resolved_in_arrival_order(sim):
    """An early-sent message on a slow path must NOT reserve the downlink
    ahead of a later-sent message that physically arrives first."""
    from repro.net.latency import LatencyModel

    class PerSourceLatency(LatencyModel):
        def sample(self, rng, src, dst):
            return 0.100 if src == "slow" else 0.001

    config = NetworkConfig(
        bandwidth=1_000_000.0,
        envelope_overhead=0,
        latency=PerSourceLatency(),
        downlink_queue_min_bytes=0,
    )
    network = Network(sim, RandomStreams(1), config)
    register_sink(network, "slow")
    register_sink(network, "fast")
    arrivals = []
    network.register("c", routes_to(lambda src, msg: arrivals.append((src, sim.now))))
    network.send("slow", "c", RawMessage(1_000))  # sent first, arrives ~0.101
    sim.schedule(0.010, network.send, "fast", "c", RawMessage(1_000))  # arrives ~0.012
    sim.run()
    assert arrivals[0][0] == "fast"
    assert arrivals[0][1] == pytest.approx(0.013, abs=1e-6)
    assert arrivals[1][0] == "slow"
    assert arrivals[1][1] == pytest.approx(0.102, abs=1e-6)


def test_small_messages_skip_downlink_queue(sim):
    """Below the queue threshold, delivery is arrival + transfer even when
    a big message is hogging the receiver's downlink."""
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0, queue_min=5_000)
    register_sink(network, "a")
    register_sink(network, "b")
    times = []
    network.register("c", routes_to(lambda src, msg: times.append((msg.payload_size(), sim.now))))
    network.send("a", "c", RawMessage(10_000))  # large: queued (10ms uplink + 10ms downlink)
    network.send("b", "c", RawMessage(1_000))  # small: 1ms uplink + 1ms transfer
    sim.run()
    assert times[0] == (1_000, pytest.approx(0.002))
    assert times[1] == (10_000, pytest.approx(0.020))


def test_envelope_overhead_counted(sim):
    network = make_network(sim, overhead=256)
    register_sink(network, "a")
    register_sink(network, "b")
    network.send("a", "b", RawMessage(100))
    sim.run()
    assert network.monitor.totals.bytes == 356


def test_self_send_rejected(sim):
    network = make_network(sim)
    register_sink(network, "a")
    with pytest.raises(ValueError):
        network.send("a", "a", RawMessage(1))


def test_unknown_source_rejected(sim):
    network = make_network(sim)
    register_sink(network, "b")
    with pytest.raises(ValueError):
        network.send("ghost", "b", RawMessage(1))


def test_send_to_unregistered_destination_dropped(sim):
    network = make_network(sim)
    register_sink(network, "a")
    network.send("a", "ghost", RawMessage(1))
    sim.run()
    assert network.dropped_messages == 1


def test_a_node_without_routes_hears_nothing_and_counts_nothing(sim):
    """Registered with no routes, or withdrawn to them: every copy reaches
    the node's (empty) table, which ignores it without a drop."""
    network = make_network(sim)
    register_sink(network, "a")
    network.register("b", None)
    inbox_c = register_sink(network, "c")
    network.set_routes("c", None)
    network.multicast("a", ["b", "c"], RawMessage(1))
    sim.run()
    assert inbox_c == [] and network.dropped_messages == 0
    assert "b" in network and "c" in network


def test_duplicate_registration_rejected(sim):
    network = make_network(sim)
    register_sink(network, "a")
    with pytest.raises(ValueError):
        network.register("a", routes_to(lambda src, msg: None))


def test_disconnected_destination_drops(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.set_disconnected("b", True)
    network.send("a", "b", RawMessage(1))
    sim.run()
    assert inbox == []
    assert network.dropped_messages == 1


def test_disconnected_source_drops(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.set_disconnected("a", True)
    network.send("a", "b", RawMessage(1))
    sim.run()
    assert inbox == []


def test_reconnect_restores_delivery(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.set_disconnected("b", True)
    network.send("a", "b", RawMessage(1))
    network.set_disconnected("b", False)
    network.send("a", "b", RawMessage(1))
    sim.run()
    assert len(inbox) == 1


def test_disconnect_mid_flight_drops_at_delivery(sim):
    network = make_network(sim, latency=0.050)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.send("a", "b", RawMessage(1))
    sim.schedule(0.010, network.set_disconnected, "b", True)
    sim.run()
    assert inbox == []
    assert network.dropped_messages == 1


def test_drop_filter(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.set_drop_filter(lambda src, dst, msg: msg.payload_size() > 10)
    network.send("a", "b", RawMessage(100))
    network.send("a", "b", RawMessage(5))
    sim.run()
    assert len(inbox) == 1
    assert network.dropped_messages == 1


def test_multicast_delivers_shared_instance_to_every_destination(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    message = RawMessage(10)
    network.multicast("a", ["b", "c"], message)
    sim.run()
    assert len(inbox_b) == len(inbox_c) == 1
    # One shared instance across the fanout (gossip messages are immutable
    # after construction); per-copy allocation was the old broadcast() API.
    assert inbox_b[0][1] is message and inbox_c[0][1] is message


def test_monitor_records_at_send_time(sim):
    network = make_network(sim, latency=1.0)
    register_sink(network, "a")
    register_sink(network, "b")
    sim.schedule(5.0, network.send, "a", "b", RawMessage(100))
    sim.run()
    assert network.monitor.series("a", "tx", end_time=6.0)[5] == 100.0


def test_invalid_bandwidth_rejected(sim):
    with pytest.raises(ValueError):
        Network(sim, RandomStreams(1), NetworkConfig(bandwidth=0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("monitor_bin_width", float("nan")),  # the first record failed, unnamed
        ("monitor_bin_width", float("inf")),  # the whole run landed in bin 0
        ("monitor_bin_width", 0.0),
        ("envelope_overhead", -300),
        ("envelope_overhead", float("nan")),
        ("envelope_overhead", float("inf")),
        ("downlink_queue_min_bytes", -1),
        ("downlink_queue_min_bytes", float("nan")),
        ("downlink_queue_min_bytes", float("inf")),
    ],
)
def test_bad_wire_and_accounting_parameters_are_refused_by_name(field, value):
    with pytest.raises(ValueError, match=f"NetworkConfig.{field} must be finite"):
        NetworkConfig(**{field: value})


def test_traffic_kinds_recorded(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    network.send("a", "b", RawMessage(10, kind="StateInfo"))
    sim.run()
    assert network.monitor.totals.by_kind_messages == {"StateInfo": 1}


def test_downlink_arrival_order_with_mixed_paths(sim):
    """Three senders, mixed latencies: the receiver's downlink must be
    granted strictly in physical arrival order, not send order."""
    from repro.net.latency import LatencyModel

    class PerSourceLatency(LatencyModel):
        DELAYS = {"w1": 0.200, "w2": 0.050, "fast": 0.001}

        def sample(self, rng, src, dst):
            return self.DELAYS[src]

    config = NetworkConfig(
        bandwidth=1_000_000.0,
        envelope_overhead=0,
        latency=PerSourceLatency(),
        downlink_queue_min_bytes=0,
    )
    network = Network(sim, RandomStreams(1), config)
    for name in ("w1", "w2", "fast"):
        register_sink(network, name)
    arrivals = []
    network.register("rx", routes_to(lambda src, msg: arrivals.append(src)))
    network.send("w1", "rx", RawMessage(10_000))  # sent first, arrives last
    network.send("w2", "rx", RawMessage(10_000))
    sim.schedule(0.005, network.send, "fast", "rx", RawMessage(10_000))
    sim.run()
    assert arrivals == ["fast", "w2", "w1"]


def test_early_slow_send_does_not_reserve_downlink_ahead_of_fast_send(sim):
    """Regression guard for the two-phase large-message schedule: a message
    launched earlier on a slow path must queue BEHIND a later fast-path
    message that physically arrives first, and the later message's delivery
    time must be unaffected by the slow one."""
    from repro.net.latency import LatencyModel

    class PerSourceLatency(LatencyModel):
        def sample(self, rng, src, dst):
            return 0.500 if src == "slow" else 0.0

    config = NetworkConfig(
        bandwidth=1_000_000.0,
        envelope_overhead=0,
        latency=PerSourceLatency(),
        downlink_queue_min_bytes=0,
    )
    network = Network(sim, RandomStreams(1), config)
    register_sink(network, "slow")
    register_sink(network, "fast")
    times = {}
    network.register("rx", routes_to(lambda src, msg: times.setdefault(src, sim.now)))
    network.send("slow", "rx", RawMessage(50_000))  # uplink 50ms, arrives 550ms
    sim.schedule(0.100, network.send, "fast", "rx", RawMessage(10_000))
    sim.run()
    # fast: sent 100ms + 10ms uplink + 0 latency + 10ms downlink = 120ms,
    # exactly as if the slow message did not exist.
    assert times["fast"] == pytest.approx(0.120)
    # slow: arrives 550ms, downlink free by then, +50ms transfer.
    assert times["slow"] == pytest.approx(0.600)


def test_small_message_pipeline_is_single_phase_but_ordered(sim):
    """Below the queue threshold messages take the one-event fast path yet
    still deliver in arrival order among themselves."""
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0, queue_min=1_000_000)
    register_sink(network, "a")
    register_sink(network, "b")
    order = []
    network.register("rx", routes_to(lambda src, msg: order.append(src)))
    network.send("a", "rx", RawMessage(2_000))   # uplink 2ms, delivered 4ms
    network.send("b", "rx", RawMessage(1_000))   # uplink 1ms, delivered 2ms
    sim.run()
    assert order == ["b", "a"]


def test_multicast_accepts_any_sequence(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    network.multicast("a", ("b", "c"), RawMessage(10))  # tuple, not list
    sim.run()
    assert len(inbox_b) == len(inbox_c) == 1


def test_multicast_unknown_source_and_self_send_rejected_before_any_traffic(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    with pytest.raises(ValueError):
        network.multicast("ghost", ["b"], RawMessage(10))
    with pytest.raises(ValueError):
        network.multicast("a", ["b", "a"], RawMessage(10))
    assert network.monitor.totals.messages == 0
    assert network.dropped_messages == 0
    assert sim.pending_events == 0


def test_multicast_matches_per_copy_send_loop_exactly(sim):
    """The equivalence contract on a plain fanout: same delivery times,
    same delivery order, same monitor accounting as a send loop."""
    from repro.simulation import Simulator

    sim_b = Simulator()
    multicast_net = make_network(sim, latency=0.010, overhead=256)
    loop_net = make_network(sim_b, latency=0.010, overhead=256)
    deliveries = {"multicast": [], "loop": []}
    for label, network, simulator in (
        ("multicast", multicast_net, sim),
        ("loop", loop_net, sim_b),
    ):
        register_sink(network, "a")
        for name in ("b", "c", "d"):
            network.register(
                name,
                routes_to(lambda src, msg, n=name, lab=label, s=simulator: deliveries[lab].append(
                    (s.now, n)
                )),
            )
    multicast_net.multicast("a", ["b", "c", "d"], RawMessage(500))
    for dst in ("b", "c", "d"):
        loop_net.send("a", dst, RawMessage(500))
    sim.run(), sim_b.run()
    assert deliveries["multicast"] == deliveries["loop"]
    for node in ("a", "b", "c", "d"):
        assert (
            multicast_net.monitor.node_totals(node).by_kind_bytes
            == loop_net.monitor.node_totals(node).by_kind_bytes
        )


def test_multicast_groups_tied_deliveries_into_one_event(sim):
    """Zero-size copies over constant latency arrive at identical times;
    the whole fanout must coalesce into a single slot-delivery event."""
    network = make_network(sim, latency=0.005, queue_min=1_000)
    register_sink(network, "a")
    inboxes = {name: register_sink(network, name) for name in ("b", "c", "d")}
    network.multicast("a", ["b", "c", "d"], RawMessage(0))
    assert sim.pending_events == 1
    # One delivery entry, its arguments in the entry, grouped before the push.
    ((_, _, _, src, _, target),) = sim._heap
    assert (src, target) == ("a", ["b", "c", "d"])
    sim.run()
    assert sim.events_executed == 1
    assert all(len(inbox) == 1 for inbox in inboxes.values())


def test_a_pending_delivery_is_one_small_tuple(sim):
    """A 10,000-destination ``multicast`` costs at most 185 traced bytes
    per pending delivery: the six-slot entry, its time and the heap slot.
    Measured 135 (155 while the measured call also opened a monitor
    cell); an entry plus a separate argument tuple cost 194. The first
    multicast opens the sender's port; its copies take a second of
    uplink, so the measured one falls in the monitor's next bin. A
    ``send_aggregate`` of the same message, which schedules nothing,
    opens that bin's cell first (folding the last bin's into the
    receivers' byte rows), so the measured multicast allocates nothing
    but its deliveries."""
    n = 10_000
    network = make_network(sim, latency=0.01, queue_min=1_000_000)
    dsts = [f"n{i}" for i in range(n)]
    for name in ["src"] + dsts:
        network.register(name, routes_to(lambda src, msg: None))
    message = RawMessage(100)
    network.multicast("src", dsts, message)
    sim.run()
    network.send_aggregate("src", dsts, message)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        network.multicast("src", dsts, message)
        per_delivery = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert sim.pending_events == n  # no two copies tied: one entry each
    assert all(len(entry) == 6 for entry in sim._heap)
    assert per_delivery <= 185


def test_multicast_large_copies_take_downlink_queue_per_destination(sim):
    """Above the queue threshold every copy pays its own receiver downlink,
    exactly like per-copy sends (send_aggregate deliberately does not)."""
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0, queue_min=5_000)
    register_sink(network, "a")
    times = {}
    for name in ("b", "c"):
        network.register(name, routes_to(lambda src, msg, n=name: times.setdefault(n, sim.now)))
    network.multicast("a", ["b", "c"], RawMessage(10_000))
    sim.run()
    # Copy 1: 10 ms uplink + 10 ms downlink; copy 2 queues behind copy 1's
    # uplink (20 ms) then pays its own downlink (10 ms).
    assert times["b"] == pytest.approx(0.020)
    assert times["c"] == pytest.approx(0.030)


def test_a_wrapped_send_sees_no_multicast_copy(sim):
    """Instrumentation contract: ``multicast`` never goes through
    ``send``, not even one wrapped on the instance, so an observer of
    every copy wraps both (docs/networking.md, "Instrumentation")."""
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    observed = []
    original_send = network.send
    original_multicast = network.multicast

    def wrapped_send(src, dst, message):
        observed.append(("send", src, dst))
        original_send(src, dst, message)

    network.send = wrapped_send
    network.multicast("a", ["b", "c"], RawMessage(10))
    assert observed == []

    def wrapped_multicast(src, dsts, message):
        observed.extend(("multicast", src, dst) for dst in dsts)
        original_multicast(src, dsts, message)

    network.multicast = wrapped_multicast
    network.multicast("a", ["b", "c"], RawMessage(10))
    network.send("a", "b", RawMessage(10))
    sim.run()
    assert observed == [("multicast", "a", "b"), ("multicast", "a", "c"), ("send", "a", "b")]
    assert len(inbox_b) == 3 and len(inbox_c) == 2


def test_multicast_empty_and_single_destination(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox = register_sink(network, "b")
    network.multicast("a", [], RawMessage(10))
    assert sim.pending_events == 0
    network.multicast("a", ["b"], RawMessage(10))
    sim.run()
    assert len(inbox) == 1


def test_multicast_drops_disconnected_destination_only(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    network.set_disconnected("b", True)
    network.multicast("a", ["b", "c"], RawMessage(50))
    sim.run()
    assert inbox_b == [] and len(inbox_c) == 1
    assert network.dropped_messages == 1
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}


def test_multicast_from_disconnected_source_drops_everything(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    network.set_disconnected("a", True)
    network.multicast("a", ["b", "c"], RawMessage(50))
    sim.run()
    assert inbox_b == [] and inbox_c == []
    assert network.dropped_messages == 2
    assert network.monitor.nodes() == []


def test_multicast_disconnect_mid_flight_drops_at_delivery(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    network.multicast("a", ["b", "c"], RawMessage(50))
    network.set_disconnected("b", True)
    sim.run()
    assert inbox_b == [] and len(inbox_c) == 1
    assert network.dropped_messages == 1


def test_multicast_applies_drop_filter_per_copy(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inbox_b = register_sink(network, "b")
    inbox_c = register_sink(network, "c")
    network.set_drop_filter(lambda src, dst, message: dst == "b")
    network.multicast("a", ["b", "c"], RawMessage(50))
    sim.run()
    assert inbox_b == [] and len(inbox_c) == 1
    assert network.dropped_messages == 1
    # Only the surviving copy was recorded, exactly like send().
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}


def test_multicast_handler_disconnecting_later_group_member_drops_it(sim):
    """Regression: within a tie-grouped delivery event, a handler that
    disconnects a later recipient must cause that copy to drop — exactly
    what the per-copy send loop's separate delivery events would do."""
    network = make_network(sim, latency=0.005, queue_min=1_000)
    register_sink(network, "a")
    inbox_c = register_sink(network, "c")
    network.register("b", routes_to(lambda src, msg: network.set_disconnected("c", True)))
    network.multicast("a", ["b", "c"], RawMessage(0))  # size 0: exact tie, one event
    assert sim.pending_events == 1
    sim.run()
    assert inbox_c == []
    assert network.dropped_messages == 1


def test_multicast_drop_filter_that_disconnects_source_mid_fanout(sim):
    """Regression: a drop filter with side effects (fault injection
    disconnecting the source on first drop) must stop the rest of the
    fanout exactly as it would stop a per-copy send loop — no copy after
    the disconnect may be recorded or delivered."""
    network = make_network(sim)
    register_sink(network, "a")
    inboxes = {name: register_sink(network, name) for name in ("b", "c", "d")}

    def drop_and_kill(src, dst, message):
        if dst == "c":
            network.set_disconnected("a", True)
            return True
        return False

    network.set_drop_filter(drop_and_kill)
    network.multicast("a", ["b", "c", "d"], RawMessage(50))
    sim.run()
    assert len(inboxes["b"]) == 1  # sent before the fault
    assert inboxes["c"] == [] and inboxes["d"] == []
    assert network.dropped_messages == 2  # filtered copy + disconnected-source copy
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}


# ----- aggregated sends (background traffic: accounted, never delivered) -----


def register_clock(network, sim, name):
    """A sink that records when each delivery reaches ``name``."""
    times = []
    network.register(name, routes_to(lambda src, msg: times.append(sim.now)))
    return times


def test_send_aggregate_schedules_nothing_and_calls_no_handler(sim):
    network = make_network(sim)
    register_sink(network, "a")
    inboxes = [register_sink(network, name) for name in ("b", "c", "d")]
    network.send("a", "b", RawMessage(10))  # something pending to compare against
    pending = sim.pending_events
    # A tuple: unguarded, the caller's sequence is read in place, not copied.
    network.send_aggregate("a", ("b", "c", "d"), RawMessage(100))
    assert sim.pending_events == pending
    sim.run()
    assert [len(inbox) for inbox in inboxes] == [1, 0, 0]  # the send's copy only
    assert network.monitor.totals.messages == 4
    assert network.dropped_messages == 0


def test_send_aggregate_byte_accounting_matches_per_copy_sends(sim):
    """Monitor accounting must be exactly what fanout individual sends
    would have recorded (same instant, same sizes, same kinds)."""
    from repro.simulation import Simulator

    aggregate_net = make_network(sim, overhead=256)
    sim_b = Simulator()
    per_copy_net = make_network(sim_b, overhead=256)
    for network in (aggregate_net, per_copy_net):
        for name in ("a", "b", "c"):
            register_sink(network, name)
    aggregate_net.send_aggregate("a", ["b", "c"], RawMessage(100))
    for dst in ("b", "c"):
        per_copy_net.send("a", dst, RawMessage(100))
    sim.run(), sim_b.run()
    for node in ("a", "b", "c"):
        agg = aggregate_net.monitor.node_totals(node)
        ind = per_copy_net.monitor.node_totals(node)
        assert agg.by_kind_messages == ind.by_kind_messages
        assert agg.by_kind_bytes == ind.by_kind_bytes


def test_send_aggregate_reserves_uplink_for_total_bytes(sim):
    """The burst occupies the sender's NIC for the full fanout, so a later
    send queues behind all copies, like per-copy sends."""
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0)
    register_sink(network, "a")
    register_sink(network, "c")
    arrivals = register_clock(network, sim, "b")
    network.send_aggregate("a", ["b", "c"], RawMessage(100_000))  # 0.2 s uplink
    network.send("a", "b", RawMessage(0))  # queues behind the burst
    sim.run()
    assert arrivals == [pytest.approx(0.2)]


def test_send_aggregate_drops_disconnected_destination_only(sim):
    network = make_network(sim, bandwidth=1_000_000.0, latency=0.0)
    register_sink(network, "a")
    register_sink(network, "b")
    arrivals = register_clock(network, sim, "c")
    network.set_disconnected("b", True)
    network.send_aggregate("a", ["b", "c"], RawMessage(100_000))
    assert network.dropped_messages == 1
    # The dropped copy was never recorded, exactly like send() ...
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}
    assert network.monitor.node_totals("c").by_kind_messages == {"rx:RawMessage": 1}
    assert "b" not in network.monitor.nodes()
    # ... and never occupied the uplink: one copy's 0.1 s, not two.
    network.send("a", "c", RawMessage(0))
    sim.run()
    assert arrivals == [pytest.approx(0.1)]


def test_send_aggregate_from_disconnected_source_drops_everything(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    network.set_disconnected("a", True)
    network.send_aggregate("a", ["b"], RawMessage(50))
    assert network.dropped_messages == 1
    assert network.monitor.nodes() == []


def test_send_aggregate_applies_drop_filter_per_copy(sim):
    network = make_network(sim)
    for name in ("a", "b", "c"):
        register_sink(network, name)
    network.set_drop_filter(lambda src, dst, message: dst == "b")
    network.send_aggregate("a", ["b", "c"], RawMessage(50))
    assert network.dropped_messages == 1
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}
    assert network.monitor.node_totals("c").by_kind_messages == {"rx:RawMessage": 1}
    assert "b" not in network.monitor.nodes()


def test_send_aggregate_rejects_self_and_unknown_source(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    with pytest.raises(ValueError):
        network.send_aggregate("a", ["b", "a"], RawMessage(10))
    with pytest.raises(ValueError):
        network.send_aggregate("ghost", ["b"], RawMessage(10))


def test_send_aggregate_all_copies_dropped_schedules_nothing(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    network.set_disconnected("b", True)
    network.send_aggregate("a", ["b"], RawMessage(10))
    assert sim.pending_events == 0


def test_send_aggregate_self_send_rejected_before_any_state_change(sim):
    network = make_network(sim)
    register_sink(network, "a")
    register_sink(network, "b")
    network.set_disconnected("a", True)
    # Invalid destinations reject even when the source is disconnected,
    # and a rejected call leaves no trace in counters or the monitor.
    network.set_disconnected("b", True)
    with pytest.raises(ValueError):
        network.send_aggregate("a", ["b", "a"], RawMessage(10))
    assert network.dropped_messages == 0
    assert network.monitor.nodes() == []


def test_send_aggregate_drop_filter_that_disconnects_source_mid_fanout(sim):
    """Regression for partial-drop fanouts: when the drop filter's side
    effect disconnects the source mid-fanout, the copies after the fault
    must drop through the disconnect rule, keeping monitor accounting and
    drop counters exactly in step with a per-copy send loop."""
    network = make_network(sim)
    for name in ("a", "b", "c", "d"):
        register_sink(network, name)

    def drop_and_kill(src, dst, message):
        if dst == "c":
            network.set_disconnected("a", True)
            return True
        return False

    network.set_drop_filter(drop_and_kill)
    network.send_aggregate("a", ["b", "c", "d"], RawMessage(50))
    # One filtered copy plus one disconnected-source copy; only the copy
    # accepted before the fault is recorded.
    assert network.dropped_messages == 2
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 1}
    assert sorted(network.monitor.nodes()) == ["a", "b"]


def test_send_aggregate_drop_filter_swapping_itself_mid_fanout(sim):
    """The filter is re-read per copy: a filter that uninstalls itself
    after the first drop must stop affecting the rest of the fanout."""
    network = make_network(sim)
    for name in ("a", "b", "c", "d"):
        register_sink(network, name)

    def drop_once(src, dst, message):
        network.set_drop_filter(None)
        return True

    network.set_drop_filter(drop_once)
    network.send_aggregate("a", ["b", "c", "d"], RawMessage(50))
    assert network.dropped_messages == 1
    assert network.monitor.node_totals("a").by_kind_messages == {"tx:RawMessage": 2}
    assert sorted(network.monitor.nodes()) == ["a", "c", "d"]


def _lossy_link_network(sim, queue_bytes):
    """A twin-able network behind a 1 MB/s link with a bounded queue and a
    random (LAN) latency, so every admitted copy moves the latency stream."""
    from repro.net.link import LinkModel

    config = NetworkConfig(
        envelope_overhead=0,
        link=LinkModel(bandwidth=1_000_000.0, queue_bytes=queue_bytes),
    )
    network = Network(sim, RandomStreams(1), config)
    for name in ("a", "b", "c"):
        register_sink(network, name)
    return network


def test_send_aggregate_draws_latency_like_one_width_one_send(sim):
    """The stream ``network:latency:<src>`` is shared with the sender's
    protocol sends: an admitted burst advances it exactly as one ``send``
    does, whatever the fanout width."""
    from repro.simulation import Simulator

    network = _lossy_link_network(sim, queue_bytes=1e9)
    twin = _lossy_link_network(Simulator(), queue_bytes=1e9)
    before = network.latency_rng("a").getstate()
    network.send_aggregate("a", ["b", "c"], RawMessage(1_000))
    twin.send("a", "b", RawMessage(1_000))
    assert network.latency_rng("a").getstate() != before
    assert network.latency_rng("a").getstate() == twin.latency_rng("a").getstate()


def test_send_aggregate_draws_nothing_when_no_copy_leaves(sim):
    """Guarded away entirely, or dropped by the link as a burst: no
    latency draw, exactly like per-copy sends that never left."""
    from repro.simulation import Simulator

    network = _lossy_link_network(sim, queue_bytes=10_000.0)
    twin = _lossy_link_network(Simulator(), queue_bytes=10_000.0)
    for each in (network, twin):
        each.send("a", "b", RawMessage(50_000))  # 50 ms of backlog, queue holds 10 ms
    network.set_disconnected("b", True)
    network.send_aggregate("a", ["b"], RawMessage(1_000))
    assert network.dropped_messages == 1
    network.set_disconnected("b", False)
    network.send_aggregate("a", ["b", "c"], RawMessage(1_000))
    assert network.dropped_messages == 3
    assert network.link_summary()["dropped_tail"] == 1
    assert network.latency_rng("a").getstate() == twin.latency_rng("a").getstate()
    assert sim.pending_events == twin.sim.pending_events


class _LoggedLatency(ConstantLatency):
    """A constant latency whose every draw is logged as ``"latency"``."""

    def __init__(self, log):
        super().__init__(0.001)
        self.log = log

    def bind(self, rng):
        log, delay = self.log, self.delay
        return lambda src, dst: log.append("latency") or delay


class _LoggedStreams(RandomStreams):
    """Streams whose ``network:queue:<src>`` draws are logged as ``"queue"``."""

    def __init__(self, log):
        super().__init__(1)
        self.log = log

    def stream(self, name):
        rng = super().stream(name)
        if not name.startswith("network:queue:"):
            return rng
        log = self.log
        return SimpleNamespace(random=lambda: log.append("queue") or rng.random())


def _burst_network(sim, log, link):
    """A network whose sender "a" is behind ``link``, with every latency
    and queue draw appended to ``log`` in the order it happens."""
    network = Network(
        sim,
        _LoggedStreams(log),
        NetworkConfig(envelope_overhead=0, latency=_LoggedLatency(log), link=link),
    )
    for name in ("a", "b", "c", "d"):
        register_sink(network, name)
    return network


def _send_bursts(network, log, count, size, gap):
    """``count`` bursts of 3 copies of ``size`` bytes, ``gap`` seconds
    apart; returns each burst's draws, in order."""
    draws = []
    for index in range(count):
        network.sim.run(until=index * gap)
        start = len(log)
        network.send_aggregate("a", ["b", "c", "d"], RawMessage(size))
        draws.append(log[start:])
    return draws


def test_send_aggregate_through_a_tail_dropping_link_is_one_packet_per_burst(sim):
    """A burst crosses the link as one packet: six bursts of 3 x 40 KB
    into a 1 MB/s link with a 150 KB queue are six packets. The first two
    fit; each of the other four is tail-dropped whole, adds its three
    copies to ``dropped_messages`` and draws no latency, and an admitted
    burst draws exactly one. A tail drop consumes no queue draw."""
    from repro.net.link import LinkModel

    log = []
    network = _burst_network(sim, log, LinkModel(bandwidth=1_000_000.0, queue_bytes=150_000.0))
    draws = _send_bursts(network, log, count=6, size=40_000, gap=0.0)
    summary = network.link_summary()
    assert (summary["packets"], summary["dropped_tail"], summary["dropped_codel"]) == (6, 4, 0)
    assert network.dropped_messages == 12
    assert draws == [["latency"], ["latency"], [], [], [], []]
    assert sim.pending_events == 0


def test_send_aggregate_through_codel_draws_the_queue_once_before_the_latency(sim):
    """Under CoDel each burst is one admission: at most one
    ``network:queue:<src>`` draw, made before the latency draw. A
    CoDel-dropped burst keeps its queue draw, skips the latency draw and
    adds its three copies to ``dropped_messages``."""
    from repro.net.link import CoDelConfig, LinkModel

    log = []
    link = LinkModel(
        bandwidth=1_000_000.0,
        codel=CoDelConfig(target=0.005, interval=0.02, max_drop_probability=0.5, ramp=2.0),
    )
    network = _burst_network(sim, log, link)
    draws = _send_bursts(network, log, count=40, size=10_000, gap=0.01)
    assert all(burst in ([], ["latency"], ["queue"], ["queue", "latency"]) for burst in draws)
    summary = network.link_summary()
    dropped = [burst for burst in draws if "latency" not in burst]
    assert summary["packets"] == 40
    assert summary["dropped_tail"] == 0
    assert summary["dropped_codel"] == len(dropped) > 0
    assert ["queue", "latency"] in draws
    assert network.dropped_messages == 3 * len(dropped)


def test_send_aggregate_to_foreign_shard_appends_no_egress_record(sim):
    network = make_network(sim)
    for name in ("a", "b", "c"):
        register_sink(network, name)
    egress = []
    network.enable_shard_egress({"a", "b"}, egress)
    network.send_aggregate("a", ["b", "c"], RawMessage(100))  # c is foreign
    assert egress == []
    assert sim.pending_events == 0
    assert network.monitor.node_totals("c").by_kind_messages == {"rx:RawMessage": 1}
    network.send("a", "c", RawMessage(100))  # the per-copy path does cross
    assert [record[3] for record in egress] == ["c"]


def _shard_records():
    """Cross-shard records in the coordinator's canonical order: runs of
    single-phase ("d") and two-phase ("a") records, with same-time ties
    inside a run and across a boundary."""
    kinds = "ddadaaaddddadda"
    times = [0.01, 0.01, 0.01, 0.02, 0.02, 0.02, 0.03, 0.03, 0.04, 0.04, 0.04, 0.05, 0.06, 0.06, 0.06]
    records = []
    for index, (kind, time) in enumerate(zip(kinds, times)):
        dst = "bcd"[index % 3]
        message = RawMessage(100 + index)
        if kind == "d":
            records.append(("d", time, "a", dst, message))
        else:
            records.append(("a", time, "a", dst, message, 0.001 * (index + 1)))
    return records


def _inject_one_by_one(network, records):
    """The per-record reference: one ``inject_shard_records`` call per record."""
    for rec in records:
        network.inject_shard_records([rec])


def test_batched_shard_injection_numbers_records_like_one_call_each():
    """Sequence numbers are consecutive in list order whether a barrier's
    records are injected in one call or one call each, so the heap — and
    with it the order of same-time deliveries — is the same; every record
    becomes one delivery entry ``(time, seq, callback, src, message,
    dst[, transfer])`` carrying its callback's arguments in its own slots."""
    from repro.simulation import Simulator

    records = _shard_records()
    heaps, logs = [], []
    for inject in (Network.inject_shard_records, _inject_one_by_one):
        sim = Simulator()
        network = make_network(sim)
        log = []
        for name in "abcd":
            network.register(
                name,
                routes_to(
                    lambda src, msg, name=name, sim=sim, log=log: log.append(
                        (sim.now, name, msg.payload_size())
                    )
                ),
            )
        sim.schedule(0.005, lambda: None)
        sim.run(until=0.006)  # injection starts from a non-zero clock and sequence number
        first_seq = sim._seq
        inject(network, records)
        # seq is unique, so sorting never compares past it.
        heaps.append(sorted((entry[0], entry[1], entry[2].__name__) + entry[3:] for entry in sim._heap))
        assert sorted(entry[1] for entry in heaps[-1]) == list(range(first_seq, first_seq + len(records)))
        sim.run()
        logs.append(log)
    assert heaps[0] == heaps[1]
    assert [entry[2:] for entry in sorted(heaps[0], key=lambda entry: entry[1])] == [
        ("_deliver_multicast", rec[2], rec[4], rec[3])
        if rec[0] == "d"
        else ("_arrive_multicast", rec[2], rec[4], rec[3], rec[5])
        for rec in records
    ]
    assert logs[0] == logs[1] and len(logs[0]) == len(records)
