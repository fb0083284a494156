"""Unit tests for dissemination latency tracking."""

import time

import pytest

from repro.metrics.latency import DisseminationTracker, LatencyStats, percentile
from repro.metrics.resilience import resilience_snapshot


def tracked(receptions, t0s=None):
    """Build a tracker from {block: {peer: absolute_time}} + leader times."""
    tracker = DisseminationTracker()
    t0s = t0s or {}
    for block, when in t0s.items():
        tracker.leader_received(block, when)
    for block, peers in receptions.items():
        for peer, when in peers.items():
            tracker.first_reception(peer, block, when)
    return tracker


def test_latency_relative_to_leader_reception():
    tracker = tracked({0: {"a": 1.5, "b": 2.0}}, t0s={0: 1.0})
    assert tracker.block_latencies(0) == {"a": 0.5, "b": 1.0}


def test_leader_latency_zero():
    tracker = DisseminationTracker()
    tracker.leader_received(0, 5.0)
    tracker.first_reception("leader", 0, 5.0)
    assert tracker.block_latencies(0)["leader"] == 0.0


def test_duplicate_first_receptions_ignored():
    tracker = DisseminationTracker()
    tracker.leader_received(0, 0.0)
    tracker.first_reception("a", 0, 1.0)
    tracker.first_reception("a", 0, 9.0)
    assert tracker.block_latencies(0)["a"] == 1.0


def test_peer_latencies_across_blocks():
    tracker = tracked(
        {0: {"a": 1.0}, 1: {"a": 3.0}},
        t0s={0: 0.0, 1: 2.0},
    )
    assert tracker.peer_latencies("a") == [1.0, 1.0]


def test_blocks_and_peers_listing():
    tracker = tracked({0: {"a": 1.0}, 2: {"b": 1.0}}, t0s={0: 0.0, 2: 0.0})
    assert tracker.blocks() == [0, 2]
    assert tracker.peers() == ["a", "b"]


def test_peer_ranking_by_average():
    tracker = tracked(
        {0: {"fast": 0.1, "slow": 2.0}, 1: {"fast": 0.2, "slow": 3.0}},
        t0s={0: 0.0, 1: 0.0},
    )
    ranking = tracker.peer_ranking()
    assert [name for name, _ in ranking] == ["fast", "slow"]


def test_fastest_median_slowest_peers():
    tracker = tracked(
        {0: {"a": 0.1, "b": 0.5, "c": 2.0}},
        t0s={0: 0.0},
    )
    assert tracker.fastest_median_slowest_peers() == ("a", "b", "c")


def test_block_ranking_by_time_to_reach_all():
    tracker = tracked(
        {0: {"a": 0.1, "b": 5.0}, 1: {"a": 0.2, "b": 0.4}},
        t0s={0: 0.0, 1: 0.0},
    )
    assert tracker.fastest_median_slowest_blocks()[0] == 1
    assert tracker.block_ranking()[0] == (1, 0.4)
    assert tracker.block_ranking()[-1] == (0, 5.0)


def test_orderer_to_leader_delay():
    tracker = DisseminationTracker()
    tracker.block_cut(0, 10.0)
    tracker.leader_received(0, 10.3)
    assert tracker.orderer_to_leader_delay(0) == pytest.approx(0.3)
    assert tracker.orderer_to_leader_delay(7) is None


def test_coverage_counts_receptions():
    tracker = tracked({0: {"a": 1.0, "b": 1.0}, 1: {"a": 1.0}}, t0s={0: 0.0, 1: 0.0})
    assert tracker.coverage(expected_peers=2) == {0: 2, 1: 1}


def test_reception_before_leader_t0_clamped_to_zero():
    tracker = DisseminationTracker()
    tracker.first_reception("a", 0, 0.5)
    tracker.leader_received(0, 1.0)
    assert tracker.block_latencies(0)["a"] == 0.0


def test_empty_tracker_raises_on_rankings():
    tracker = DisseminationTracker()
    with pytest.raises(ValueError):
        tracker.fastest_median_slowest_peers()
    with pytest.raises(ValueError):
        tracker.fastest_median_slowest_blocks()


def test_summary_statistics():
    tracker = tracked({0: {"a": 1.0, "b": 2.0, "c": 3.0}}, t0s={0: 0.0})
    stats = tracker.summary()
    assert stats.count == 3
    assert stats.mean == pytest.approx(2.0)
    assert stats.minimum == 1.0
    assert stats.maximum == 3.0


def test_percentile_interpolation():
    samples = [0.0, 1.0, 2.0, 3.0]
    assert percentile(samples, 0.5) == pytest.approx(1.5)
    assert percentile(samples, 0.0) == 0.0
    assert percentile(samples, 1.0) == 3.0
    assert percentile([7.0], 0.9) == 7.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_latency_stats_from_samples_rejects_empty():
    with pytest.raises(ValueError):
        LatencyStats.from_samples([])


def test_commits_keep_the_latest_per_block():
    tracker = DisseminationTracker()
    tracker.committed(0, 2.0)
    tracker.committed(0, 3.5)
    tracker.committed(0, 3.0)
    assert tracker.last_commit(0) == 3.5
    assert tracker.last_commit(1) is None


def test_resilience_report_is_linear_in_receptions():
    """A per-block query reads one row, so the report over 500 blocks x
    100 receptions takes well under a second (re-resolving every
    reception on every block query took ~5 s)."""
    tracker = DisseminationTracker()
    for block in range(500):
        tracker.leader_received(block, block * 1.5)
        for index in range(100):
            tracker.first_reception(f"peer-{index}", block, block * 1.5 + index * 0.003)
    started = time.perf_counter()
    report = resilience_snapshot({}, tracker, expected_peers=100)
    assert time.perf_counter() - started < 1.0
    assert report["infection"]["1"]["blocks_reached"] == 500
    assert report["time_to_all"]["max"] == pytest.approx(0.297)
