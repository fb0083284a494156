"""Unit tests for traffic accounting."""

import sys
import tracemalloc

import pytest

from repro.net import TrafficMonitor


def traced_bytes(build):
    """Bytes still allocated by ``build()``'s result, per tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


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


@pytest.mark.parametrize("bin_width", [float("nan"), float("inf"), -1.0])
def test_bad_bin_width_is_refused_by_name(bin_width):
    with pytest.raises(ValueError, match="TrafficMonitor.bin_width must be finite and > 0"):
        TrafficMonitor(bin_width=bin_width)


def test_last_time_tracks_latest_record():
    monitor = TrafficMonitor()
    monitor.record(3.0, "a", "b", "M", 1)
    monitor.record(1.0, "a", "b", "M", 1)
    assert monitor.last_time == 3.0


def test_network_total_bytes():
    monitor = TrafficMonitor()
    monitor.record(0.0, "a", "b", "M", 70)
    monitor.record(0.0, "b", "a", "M", 30)
    assert monitor.totals.bytes == 100


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
    assert monitor.totals.bytes == 157


def test_far_future_record_does_not_allocate_dense_bins():
    def build():
        monitor = TrafficMonitor(bin_width=1.0)
        monitor.record(0.5, "a", "b", "M", 10)
        monitor.record(1e9, "a", "b", "M", 5)  # one stray far-future record
        return monitor

    held, monitor = traced_bytes(build)
    assert held < 16_384  # not O(t): a dense list to bin 1e9 would be 8 GB
    assert monitor.last_time == 1e9 and monitor.totals.bytes == 15
    monitor = TrafficMonitor(bin_width=1.0)
    monitor.record(0.5, "a", "b", "M", 10)
    monitor.record(100_000.0, "a", "b", "M", 20)  # beyond the dense-growth cap
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
    assert monitor.totals.bytes == 500


def test_overflow_and_dense_bins_accumulate_independently():
    def build():
        monitor = TrafficMonitor(bin_width=1.0)
        monitor.record(0.0, "a", "b", "M", 10)
        monitor.record(99_999.0, "a", "b", "M", 1)  # far beyond the dense tail
        monitor.record(99_999.5, "a", "b", "M", 2)  # same far-future bin
        monitor.record(3.0, "a", "b", "M", 30)  # dense again after the stray
        return monitor

    held, monitor = traced_bytes(build)
    assert held < 16_384  # 100,000 dense bins would be 800 KB
    for node, direction in (("a", "tx"), ("b", "rx")):
        series = monitor.series(node, direction)
        assert series[0] == 10.0 and series[3] == 30.0 and series[99_999] == 3.0
        assert sum(series) == 43.0
    assert monitor.node_totals("a").by_kind_bytes == {"tx:M": 43}


def test_overflow_threshold_boundary_grows_dense():
    """A sender's memory follows the bins it filled, not the latest
    timestamp: steady traffic grows by a word per bin, and every further
    far-future stray costs the same few hundred bytes whatever its time."""

    def steady():
        monitor = TrafficMonitor(bin_width=1.0)
        for second in range(3_000):
            monitor.record(float(second), "a", "b", "M", 5)
        return monitor

    def strays(times):
        def build():
            monitor = TrafficMonitor(bin_width=1.0)
            monitor.record(0.0, "a", "b", "M", 5)
            for time in times:
                monitor.record(time, "a", "b", "M", 7)
            return monitor

        return build

    def measured(build):
        # Warm-up: the same build, dropped, so that every measured build
        # finds the allocator's free lists in the same state.
        traced_bytes(build)
        return traced_bytes(build)

    held, monitor = traced_bytes(steady)
    assert monitor.series("a", "tx") == [5.0] * 3_000
    one, _ = measured(strays([1e6]))
    far, monitor = measured(strays([1e9]))
    two, _ = measured(strays([1e9, 2e9]))
    assert abs(far - one) < 256  # the stray's cost does not depend on its time
    assert two - far < 1_024
    assert monitor.totals.bytes == 12


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


@pytest.mark.parametrize(
    "prior, call",
    [
        ([(3.2, "a", "b", "K", 100)], (-1.5, "a", "b", "K", 7)),  # wrapped into the last bin
        ([], (-1.5, "a", "b", "K", 7)),  # IndexError on an empty monitor
        ([(3.2, "a", "b", "K", 100)], (1.0, "a", "b", "K", -50)),  # negative totals
        ([(0.2, "a", "b", "K", 7)], (-0.5, "a", "b", "K", 7)),  # int() truncates towards bin 0
        ([(3.2, "a", "b", "K", 100)], (float("nan"), "a", "b", "K", 7)),
    ],
)
def test_negative_or_nan_time_and_negative_size_are_rejected(prior, call):
    monitor, untouched = TrafficMonitor(), TrafficMonitor()
    for record in prior:
        monitor.record(*record)
        untouched.record(*record)
    with pytest.raises(ValueError):
        monitor.record(*call)
    time, src, dst, kind, size = call
    with pytest.raises(ValueError):
        monitor.record_multicast(time, src, [dst, "c"], kind, size)
    assert monitor.totals == untouched.totals
    assert monitor.last_time == untouched.last_time
    for node in ("a", "b", "c"):
        assert monitor.series(node, "both") == untouched.series(node, "both")
        assert monitor.node_totals(node) == untouched.node_totals(node)


def test_memory_per_simulated_second_is_no_larger_than_before():
    """100 nodes, 2,000 s, three kinds of four-wide fan-outs. Two
    monitors ago (two receiver indexes, a record per sender) this traced
    28,655,816 bytes, and a receiver dict per (bin, kind, size) kept it at
    ~28.4 MB; bytes per (node, bin) and whole-run receiver counts per
    flow trace ~3.45 MB. The bound keeps out any per-bin dict, on the
    sender's side or the receiver's."""
    names = [sys.intern(f"peer-{index}") for index in range(100)]
    kinds = (("BlockPush", 160_256), ("PushDigest", 296), ("StateInfo", 280))

    def build():
        monitor = TrafficMonitor()
        for second in range(2_000):
            for index, src in enumerate(names):
                kind, size = kinds[(second + index) % 3]
                first = (7 * second + 13 * index) % 96
                monitor.record_multicast(
                    second + index / 100, src, names[first : first + 4], kind, size
                )
        return monitor

    held, monitor = traced_bytes(build)
    assert monitor.totals.messages == 2_000 * 100 * 4
    assert held <= 4_000_000
