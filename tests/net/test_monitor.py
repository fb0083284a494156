"""Unit tests for traffic accounting."""

import pytest

from repro.net import TrafficMonitor


def test_records_totals():
    monitor = TrafficMonitor()
    monitor.record(0.5, "a", "b", "Block", 100)
    monitor.record(1.5, "a", "c", "Digest", 10)
    assert monitor.totals.messages == 2
    assert monitor.totals.bytes == 110
    assert monitor.totals.by_kind_bytes == {"Block": 100, "Digest": 10}
    assert monitor.totals.by_kind_messages == {"Block": 1, "Digest": 1}


def test_tx_and_rx_series_binning():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(0.2, "a", "b", "M", 100)
    monitor.record(0.8, "a", "b", "M", 50)
    monitor.record(2.5, "a", "b", "M", 25)
    assert monitor.series("a", "tx") == [150.0, 0.0, 25.0]
    assert monitor.series("b", "rx") == [150.0, 0.0, 25.0]
    assert monitor.series("b", "tx") == [0.0, 0.0, 0.0]


def test_both_direction_sums_tx_and_rx():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 100)
    monitor.record(0.0, "b", "a", "M", 30)
    assert monitor.series("a", "both") == [130.0]


def test_series_padding_to_end_time():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 10)
    series = monitor.series("a", "tx", end_time=5.0)
    assert len(series) == 6
    assert series[1:] == [0.0] * 5


def test_rate_series_divides_by_bin_width():
    monitor = TrafficMonitor(bin_width=2.0)
    monitor.record(1.0, "a", "b", "M", 100)
    assert monitor.rate_series("a", "tx") == [50.0]


def test_average_rate_over_window():
    monitor = TrafficMonitor()
    monitor.record(0.5, "a", "b", "M", 100)
    monitor.record(9.5, "a", "b", "M", 100)
    assert monitor.average_rate("a", "tx", 0.0, 10.0) == pytest.approx(20.0)


def test_average_rate_empty_window():
    monitor = TrafficMonitor()
    assert monitor.average_rate("a", "tx", 5.0, 5.0) == 0.0


def test_unknown_node_yields_zero_series():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 10)
    assert monitor.series("zzz", "both", end_time=1.0) == [0.0, 0.0]


def test_nodes_lists_senders_and_receivers():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 10)
    assert monitor.nodes() == ["a", "b"]


def test_node_totals_prefixed_by_direction():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "Block", 10)
    assert monitor.node_totals("a").by_kind_bytes == {"tx:Block": 10}
    assert monitor.node_totals("b").by_kind_bytes == {"rx:Block": 10}


def test_invalid_direction_rejected():
    monitor = TrafficMonitor()
    with pytest.raises(ValueError):
        monitor.series("a", "sideways")


def test_invalid_bin_width_rejected():
    with pytest.raises(ValueError):
        TrafficMonitor(bin_width=0.0)


def test_last_time_tracks_latest_record():
    monitor = TrafficMonitor()
    monitor.record(3.0, "a", "b", "M", 1)
    monitor.record(1.0, "a", "b", "M", 1)
    assert monitor.last_time == 3.0


def test_network_total_bytes():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 70)
    monitor.record(0.0, "b", "a", "M", 30)
    assert monitor.network_total_bytes() == 100


# ----- bin-edge accounting after the array-bin rewrite ----------------------


def test_record_exactly_on_bin_boundary_goes_to_upper_bin():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(2.0, "a", "b", "M", 10)  # [2.0, 3.0) -> bin 2
    assert monitor.series("a", "tx") == [0.0, 0.0, 10.0]


def test_record_just_below_boundary_stays_in_lower_bin():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(1.9999999, "a", "b", "M", 10)
    assert monitor.series("a", "tx", end_time=2.0)[1] == 10.0


def test_fractional_bin_width_edges():
    monitor = TrafficMonitor(bin_width=0.5)
    monitor.record(0.49, "a", "b", "M", 1)
    monitor.record(0.5, "a", "b", "M", 2)  # exactly on the edge: bin 1
    monitor.record(0.99, "a", "b", "M", 4)
    assert monitor.series("a", "tx") == [1.0, 6.0]


def test_non_unit_bin_width_binning():
    monitor = TrafficMonitor(bin_width=10.0)
    monitor.record(9.99, "a", "b", "M", 1)
    monitor.record(10.0, "a", "b", "M", 2)
    monitor.record(19.99, "a", "b", "M", 4)
    monitor.record(20.0, "a", "b", "M", 8)
    assert monitor.series("a", "tx") == [1.0, 6.0, 8.0]


def test_out_of_order_records_accumulate_correctly():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(5.2, "a", "b", "M", 10)
    monitor.record(1.1, "a", "b", "M", 20)  # earlier than the series tail
    monitor.record(5.8, "a", "b", "M", 30)
    assert monitor.series("a", "tx") == [0.0, 20.0, 0.0, 0.0, 0.0, 40.0]
    assert monitor.last_time == 5.8


def test_series_end_time_on_exact_boundary_includes_that_bin():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(0.5, "a", "b", "M", 10)
    assert len(monitor.series("a", "tx", end_time=3.0)) == 4  # bins 0..3


def test_totals_derived_from_tx_side_counts_each_message_once():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "Block", 100)
    monitor.record(0.0, "b", "a", "Block", 50)
    monitor.record(1.0, "a", "c", "Digest", 7)
    totals = monitor.totals
    assert totals.messages == 3
    assert totals.bytes == 157
    assert totals.by_kind_bytes == {"Block": 150, "Digest": 7}
    assert monitor.network_total_bytes() == 157


def test_far_future_record_does_not_allocate_dense_bins():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(0.5, "a", "b", "M", 10)
    monitor.record(100_000.0, "a", "b", "M", 20)  # beyond the dense-growth cap
    record = monitor._node["a"]
    assert len(record[0]) < 10_000  # dense tx bins stayed small
    assert record[2] == {100_000: 20}  # sparse overflow holds the stray bin
    assert monitor.series("a", "tx", end_time=2.0) == [10.0, 0.0, 0.0]
    full = monitor.series("a", "tx")
    assert full[0] == 10.0
    assert full[100_000] == 20.0
    assert monitor.totals.bytes == 30
    assert monitor.series("b", "rx", end_time=2.0) == [10.0, 0.0, 0.0]


def test_overflow_bins_feed_rate_and_average_series():
    """The sparse far-future path must be invisible to every series view:
    rates, averages and network totals all include overflow bins."""
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(1.5, "a", "b", "M", 100)
    monitor.record(50_000.5, "a", "b", "M", 400)  # sparse tx+rx overflow
    assert monitor.last_time == 50_000.5
    rates = monitor.rate_series("a", "tx")
    assert rates[1] == 100.0
    assert rates[50_000] == 400.0
    # Average over a window that only the overflow bin touches.
    assert monitor.average_rate("a", "tx", start=50_000.0, end=50_001.0) == 400.0
    assert monitor.average_rate("b", "rx", start=50_000.0, end=50_001.0) == 400.0
    assert monitor.network_total_bytes() == 500


def test_overflow_and_dense_bins_accumulate_independently():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(0.0, "a", "b", "M", 10)
    monitor.record(99_999.0, "a", "b", "M", 1)  # lands in overflow
    monitor.record(99_999.5, "a", "b", "M", 2)  # same overflow bin
    monitor.record(3.0, "a", "b", "M", 30)  # dense again after the stray
    record = monitor._node["a"]
    assert record[2] == {99_999: 3}
    assert record[0][0] == 10 and record[0][3] == 30
    series = monitor.series("a", "tx")
    assert series[0] == 10.0 and series[3] == 30.0 and series[99_999] == 3.0


def test_overflow_threshold_boundary_grows_dense():
    """A jump of exactly the dense-growth cap still extends the dense
    list; one bin beyond it goes sparse."""
    from repro.simulation._core import _MAX_DENSE_GROWTH

    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(float(_MAX_DENSE_GROWTH - 1), "a", "b", "M", 5)
    record = monitor._node["a"]
    assert len(record[0]) == _MAX_DENSE_GROWTH and record[2] == {}
    monitor.record(float(2 * _MAX_DENSE_GROWTH + 1), "a", "b", "M", 7)
    assert len(record[0]) == _MAX_DENSE_GROWTH  # unchanged
    assert record[2] == {2 * _MAX_DENSE_GROWTH + 1: 7}


def test_totals_are_lazy_and_reflect_later_records():
    """totals is a lazily materialized view, not a cached counter: records
    landed after a totals access must appear in the next access."""
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "Block", 100)
    first = monitor.totals
    assert (first.messages, first.bytes) == (1, 100)
    monitor.record(1.0, "b", "a", "Digest", 7)
    second = monitor.totals
    assert (second.messages, second.bytes) == (2, 107)
    assert second.by_kind_messages == {"Block": 1, "Digest": 1}
    # The first snapshot is an independent value object, not a live view.
    assert (first.messages, first.bytes) == (1, 100)


def test_lazy_totals_include_overflow_recorded_messages():
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(1.0, "a", "b", "M", 10)
    monitor.record(1e7, "a", "b", "M", 25)  # far-future: sparse bins
    totals = monitor.totals
    assert totals.messages == 2
    assert totals.bytes == 35
    node = monitor.node_totals("a")
    assert node.by_kind_bytes == {"tx:M": 35}
    assert monitor.node_totals("b").by_kind_bytes == {"rx:M": 35}


def test_record_fanout_equivalent_to_individual_records():
    """The aggregated-send accounting path must be byte-for-byte identical
    to per-copy record() calls, overflow bins included."""
    schedule = [
        (0.2, "a", ["b", "c", "d"], "Alive", 100),
        (0.7, "b", ["a"], "Alive", 40),
        (2.4, "a", ["c"], "Alive", 100),
        (90_000.0, "c", ["a", "b"], "Alive", 9),  # overflow on tx and rx
    ]
    fanout, individual = TrafficMonitor(), TrafficMonitor()
    for time, src, dsts, kind, size in schedule:
        fanout.record_fanout(time, src, dsts, kind, size)
        for dst in dsts:
            individual.record(time, src, dst, kind, size)
    assert fanout.last_time == individual.last_time
    assert fanout.nodes() == individual.nodes()
    for node in individual.nodes():
        for direction in ("tx", "rx", "both"):
            assert fanout.series(node, direction) == individual.series(node, direction)
        agg, ind = fanout.node_totals(node), individual.node_totals(node)
        assert agg.by_kind_messages == ind.by_kind_messages
        assert agg.by_kind_bytes == ind.by_kind_bytes
    assert fanout.totals.messages == individual.totals.messages
    assert fanout.totals.bytes == individual.totals.bytes
    assert fanout.network_total_bytes() == individual.network_total_bytes()


def test_record_fanout_empty_destinations_is_noop():
    monitor = TrafficMonitor()
    monitor.record_fanout(1.0, "a", [], "Alive", 10)
    assert monitor.nodes() == []
    assert monitor.totals.messages == 0
    assert monitor.last_time == 0.0
