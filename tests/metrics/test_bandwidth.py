"""Unit tests for bandwidth reporting."""

import pytest

from repro.metrics.bandwidth import BandwidthReport, aggregate_series
from repro.net import TrafficMonitor


def test_aggregate_series_means_consecutive_bins():
    assert aggregate_series([1, 2, 3, 4, 5, 6], 2) == [1.5, 3.5, 5.5]


def test_aggregate_series_partial_tail():
    assert aggregate_series([2, 4, 6], 2) == [3.0, 6.0]


def test_aggregate_series_identity_factor():
    assert aggregate_series([1.0, 2.0], 1) == [1.0, 2.0]


def test_aggregate_series_invalid_factor():
    with pytest.raises(ValueError):
        aggregate_series([1.0], 0)


def make_monitor():
    monitor = TrafficMonitor(bin_width=1.0)
    # 1 MB/s for leader for 20 s; 0.5 MB/s for a regular peer.
    for second in range(20):
        monitor.record_multicast(second + 0.5, "leader", ("peer-1",), "BlockPush", 1_000_000)
        monitor.record_multicast(second + 0.5, "peer-1", ("peer-2",), "BlockPush", 250_000)
    return monitor


def test_peer_utilization_10s_aggregation():
    report = BandwidthReport(make_monitor(), end_time=20.0, aggregation_interval=10.0)
    leader = report.peer_utilization("leader", direction="tx")
    assert len(leader.series_mb_per_s) == 3  # bins 0-9, 10-19, 20
    assert leader.series_mb_per_s[0] == pytest.approx(1.0)
    assert leader.average_mb_per_s == pytest.approx(1.0)


def test_both_direction_counts_rx_and_tx():
    report = BandwidthReport(make_monitor(), end_time=20.0)
    peer1 = report.peer_utilization("peer-1")
    # rx 1 MB/s from leader + tx 0.25 MB/s.
    assert peer1.average_mb_per_s == pytest.approx(1.25)


def test_average_over_group():
    report = BandwidthReport(make_monitor(), end_time=20.0)
    group = report.average_over(["leader", "peer-2"], direction="both")
    # leader: 1.0 tx; peer-2: 0.25 rx → mean 0.625.
    assert group == pytest.approx(0.625)


def test_network_total_mb():
    report = BandwidthReport(make_monitor(), end_time=20.0)
    assert report.network_total_mb() == pytest.approx(25.0)


def test_counts_by_kind():
    monitor = TrafficMonitor()
    monitor.record_multicast(0.0, "a", ("b",), "BlockPush", 2_000_000)
    monitor.record_multicast(0.0, "a", ("b",), "PushDigest", 1_000)
    report = BandwidthReport(monitor)
    assert report.message_counts() == {"BlockPush": 1, "PushDigest": 1}


def test_aggregation_below_resolution_rejected():
    monitor = TrafficMonitor(bin_width=1.0)
    with pytest.raises(ValueError):
        BandwidthReport(monitor, aggregation_interval=0.5)


def test_idle_tail_visible_as_zero_bins():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record_multicast(0.5, "a", ("b",), "M", 1_000_000)
    report = BandwidthReport(monitor, end_time=30.0, aggregation_interval=10.0)
    series = report.peer_utilization("a", direction="tx").series_mb_per_s
    assert series[0] > 0
    assert series[1] == 0.0 and series[2] == 0.0
