"""Unit tests for calibrated background traffic."""

import pytest

from repro.gossip.background import BackgroundTraffic
from repro.gossip.config import BackgroundTrafficConfig

from tests.conftest import FakeHost, make_view


def test_emits_at_configured_rate():
    host = FakeHost("p0")
    config = BackgroundTrafficConfig(period=1.0, fanout=2, message_size=1000)
    traffic = BackgroundTraffic(host, make_view("p0", org_size=6), config)
    traffic.start()
    host.run(until=5.0)
    assert 8 <= traffic.messages_sent <= 12  # ~2 per second for ~5 s


def test_disabled_config_emits_nothing():
    host = FakeHost("p0")
    config = BackgroundTrafficConfig(enabled=False)
    traffic = BackgroundTraffic(host, make_view("p0"), config)
    traffic.start()
    host.run(until=5.0)
    assert traffic.messages_sent == 0
    assert host.timers == []


def test_per_peer_tx_rate_calibration():
    config = BackgroundTrafficConfig(period=1.0, fanout=2, message_size=100_000)
    # 0.2 MB/s transmitted => ~0.4 MB/s rx+tx per peer network-wide.
    assert config.per_peer_tx_rate == pytest.approx(200_000.0)
    assert BackgroundTrafficConfig(enabled=False).per_peer_tx_rate == 0.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("period", 0.0),
        ("period", -0.25),
        ("period", float("nan")),
        ("period", float("inf")),
        ("fanout", 0),
        ("fanout", -1),
        ("message_size", -30_000),
    ],
)
def test_config_rejects_values_that_would_run_to_wrong_numbers(field, value):
    """Before the check: a negative size ran to completion and reported
    negative bytes, ``fanout=-1`` silently emitted nothing and a NaN period
    died inside the timer wheel at ``start()``."""
    with pytest.raises(ValueError, match=field):
        BackgroundTrafficConfig(**{field: value})


def test_message_sizes_match_config():
    host = FakeHost("p0")
    config = BackgroundTrafficConfig(period=1.0, fanout=1, message_size=12_345)
    BackgroundTraffic(host, make_view("p0"), config).start()
    host.run(until=2.0)
    assert all(msg.payload_size() == 12_345 for _, msg in host.sent)


# ----- aggregated emission (batched network events) --------------------------


def _built_network(per_copy=False, n_peers=8, seed=5, until=6.0):
    """A small background run. ``per_copy`` is the reference: the
    network's ``send_aggregate`` is replaced, by instance assignment, with
    a loop over ``send``, so every copy is a delivery of its own."""
    from repro.experiments.builders import build_network
    from repro.gossip.config import EnhancedGossipConfig

    net = build_network(
        n_peers=n_peers,
        gossip=EnhancedGossipConfig(),
        seed=seed,
        background=BackgroundTrafficConfig(),
    )
    if per_copy:
        network = net.network

        def send_per_copy(src, dsts, message):
            for dst in dsts:
                network.send(src, dst, message)

        network.send_aggregate = send_per_copy
    net.start()
    net.sim.run(until=until)
    return net


def test_aggregated_byte_accounting_identical_to_per_copy():
    """The tentpole equivalence: with identical emission times (both runs
    ride the wheel), aggregation must not move a single byte in the
    monitor — per node, per direction, per kind, per bin."""
    aggregated = _built_network()
    per_copy = _built_network(per_copy=True)
    mon_a, mon_b = aggregated.network.monitor, per_copy.network.monitor
    assert mon_a.nodes() == mon_b.nodes()
    for node in mon_a.nodes():
        totals_a, totals_b = mon_a.node_totals(node), mon_b.node_totals(node)
        assert totals_a.by_kind_messages["tx:MembershipAlive"] == \
            totals_b.by_kind_messages["tx:MembershipAlive"]
        assert totals_a.by_kind_bytes == totals_b.by_kind_bytes
        assert mon_a.series(node, "both") == mon_b.series(node, "both")


def test_aggregation_reduces_simulator_events():
    aggregated = _built_network()
    per_copy = _built_network(per_copy=True)
    assert aggregated.sim.events_executed < 0.7 * per_copy.sim.events_executed


def test_aggregate_emission_counts_copies():
    net = _built_network(until=4.0)
    for peer in net.peers.values():
        background = peer.background
        assert background is not None
        config = background.config
        expected = config.fanout * (4.0 / config.period)
        assert 0.5 * expected <= background.messages_sent <= 1.5 * expected


def test_fakehost_records_one_sent_row_per_aggregated_copy():
    host = FakeHost("p0")
    config = BackgroundTrafficConfig(period=1.0, fanout=2, message_size=1000)
    traffic = BackgroundTraffic(host, make_view("p0", org_size=6), config)
    traffic.start()
    host.run(until=3.0)
    assert traffic.messages_sent > 0
    assert len(host.sent) == traffic.messages_sent
    assert all(message.kind == "MembershipAlive" for _, message in host.sent)


def test_each_emission_is_one_aggregate_of_distinct_channel_peers():
    class AggregateHost(FakeHost):
        def __init__(self, name):
            super().__init__(name)
            self.aggregates = []

        def send_aggregate(self, src, dsts, message):
            self.aggregates.append((src, list(dsts)))
            super().send_aggregate(src, dsts, message)

    host = AggregateHost("p0")
    view = make_view("p0", org_size=6)
    config = BackgroundTrafficConfig(period=1.0, fanout=3, message_size=1000)
    traffic = BackgroundTraffic(host, view, config)
    traffic.start()
    host.run(until=4.0)
    assert len(host.aggregates) >= 3
    for src, dsts in host.aggregates:
        assert src == "p0"
        assert len(dsts) == len(set(dsts)) == 3
        assert "p0" not in dsts and set(dsts) <= {f"p{i}" for i in range(6)}
    assert traffic.messages_sent == sum(len(dsts) for _, dsts in host.aggregates)


def test_config_has_no_per_copy_knob():
    import dataclasses

    names = [field.name for field in dataclasses.fields(BackgroundTrafficConfig)]
    assert names == ["enabled", "period", "fanout", "message_size"]
    with pytest.raises(TypeError):
        BackgroundTrafficConfig(aggregate=False)


def test_background_copies_reach_no_peer_handler():
    """The aggregate is accounted at every receiver and delivered to none:
    no peer's table holds ``MembershipAlive``, and no copy is a drop."""
    from repro.gossip.messages import MembershipAlive

    net = _built_network(until=3.0)
    assert all(MembershipAlive not in peer.route_table for peer in net.peers.values())
    monitor = net.network.monitor
    received = sum(
        monitor.node_totals(name).by_kind_messages["rx:MembershipAlive"] for name in net.peers
    )
    sent = sum(peer.background.messages_sent for peer in net.peers.values())
    assert received == sent > 0
    assert net.network.dropped_messages == 0


def test_crashed_peer_stops_emitting_background():
    net = _built_network(until=2.0)
    victim = net.peers["peer-3"]
    sent_at_crash = victim.background.messages_sent
    victim.crash()
    net.sim.run(until=6.0)
    assert victim.background.messages_sent == sent_at_crash


def test_wrapping_send_aggregate_by_assignment_observes_traffic():
    """Convention check: like network.send, send_aggregate is resolved at
    emission time, so tests wrapping it by assignment see every batch."""
    net = _built_network(until=0.0)
    observed = []
    original = net.network.send_aggregate

    def spy(src, dsts, message):
        observed.append((src, tuple(dsts), message.kind))
        original(src, dsts, message)

    net.network.send_aggregate = spy
    net.sim.run(until=2.0)
    assert observed
    assert all(kind == "MembershipAlive" for _, _, kind in observed)
