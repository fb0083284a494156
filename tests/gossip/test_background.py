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


def _built_network(aggregate, n_peers=8, seed=5, until=6.0):
    from repro.experiments.builders import build_network
    from repro.gossip.config import EnhancedGossipConfig

    net = build_network(
        n_peers=n_peers,
        gossip=EnhancedGossipConfig(),
        seed=seed,
        background=BackgroundTrafficConfig(aggregate=aggregate),
    )
    net.start()
    net.sim.run(until=until)
    return net


def test_aggregated_byte_accounting_identical_to_per_copy():
    """The tentpole equivalence: with identical emission times (both runs
    ride the wheel), aggregation must not move a single byte in the
    monitor — per node, per direction, per kind, per bin."""
    aggregated = _built_network(aggregate=True)
    per_copy = _built_network(aggregate=False)
    mon_a, mon_b = aggregated.network.monitor, per_copy.network.monitor
    assert mon_a.nodes() == mon_b.nodes()
    for node in mon_a.nodes():
        totals_a, totals_b = mon_a.node_totals(node), mon_b.node_totals(node)
        assert totals_a.by_kind_messages["tx:MembershipAlive"] == \
            totals_b.by_kind_messages["tx:MembershipAlive"]
        assert totals_a.by_kind_bytes == totals_b.by_kind_bytes
        assert mon_a.series(node, "both") == mon_b.series(node, "both")


def test_aggregation_reduces_simulator_events():
    aggregated = _built_network(aggregate=True)
    per_copy = _built_network(aggregate=False)
    assert aggregated.sim.events_executed < 0.7 * per_copy.sim.events_executed


def test_aggregate_emission_counts_copies():
    net = _built_network(aggregate=True, until=4.0)
    for peer in net.peers.values():
        background = peer.background
        assert background is not None
        config = background.config
        expected = config.fanout * (4.0 / config.period)
        assert 0.5 * expected <= background.messages_sent <= 1.5 * expected


def test_fakehost_without_network_falls_back_to_per_copy_sends():
    host = FakeHost("p0")
    config = BackgroundTrafficConfig(period=1.0, fanout=2, message_size=1000, aggregate=True)
    traffic = BackgroundTraffic(host, make_view("p0", org_size=6), config)
    traffic.start()
    host.run(until=3.0)
    assert traffic.messages_sent > 0
    assert all(message.kind == "MembershipAlive" for _, message in host.sent)


def test_crashed_peer_stops_emitting_background():
    net = _built_network(aggregate=True, until=2.0)
    victim = net.peers["peer-3"]
    sent_at_crash = victim.background.messages_sent
    victim.crash()
    net.sim.run(until=6.0)
    assert victim.background.messages_sent == sent_at_crash


def test_wrapping_send_aggregate_by_assignment_observes_traffic():
    """Convention check: like network.send, send_aggregate is resolved at
    emission time, so tests wrapping it by assignment see every batch."""
    net = _built_network(aggregate=True, until=0.0)
    observed = []
    original = net.network.send_aggregate

    def spy(src, dsts, message):
        observed.append((src, tuple(dsts), message.kind))
        original(src, dsts, message)

    net.network.send_aggregate = spy
    net.sim.run(until=2.0)
    assert observed
    assert all(kind == "MembershipAlive" for _, _, kind in observed)
