"""Integration tests for the dissemination experiment runner (small scale)."""

import gc
import importlib.util
import os
import tracemalloc

import pytest

from repro.experiments.dissemination import DisseminationConfig, run_coverage, run_dissemination
from repro.gossip.config import (
    BackgroundTrafficConfig,
    EnhancedGossipConfig,
    OriginalGossipConfig,
    RecoveryConfig,
)

from tests.conftest import node_names_interned


@pytest.fixture(scope="module")
def small_original():
    return run_dissemination(
        DisseminationConfig(
            gossip=OriginalGossipConfig(), n_peers=20, blocks=5, tx_per_block=5,
            block_period=0.5, seed=2,
        )
    )


@pytest.fixture(scope="module")
def small_enhanced():
    return run_dissemination(
        DisseminationConfig(
            gossip=EnhancedGossipConfig.paper_f4(), n_peers=20, blocks=5, tx_per_block=5,
            block_period=0.5, seed=2,
        )
    )


def test_all_blocks_reach_all_peers(small_original, small_enhanced):
    assert small_original.coverage_complete()
    assert small_enhanced.coverage_complete()


def test_latency_samples_shape(small_original):
    summary = small_original.latency_summary()
    assert summary.count == 20 * 5
    assert summary.minimum == 0.0  # the leader receives at t0


def test_peer_level_series_keys(small_original):
    series = small_original.peer_level_series()
    assert set(series) == {"fastest", "median", "slowest"}
    assert all(len(samples) == 5 for samples in series.values())


def test_block_level_series_keys(small_original):
    series = small_original.block_level_series()
    assert set(series) == {"fastest", "median", "slowest"}
    assert all(len(samples) == 20 for samples in series.values())


def test_chains_committed_and_consistent(small_enhanced):
    for peer in small_enhanced.net.peers.values():
        assert peer.ledger_height == 5
        assert peer.blockchain.verify_committed_chain()


def test_enhanced_uses_no_pull(small_enhanced):
    assert small_enhanced.pull_usage() == 0


def test_bandwidth_report_available(small_original):
    report = small_original.bandwidth_report()
    assert report.network_total_mb() > 0
    leader = small_original.leader_bandwidth()
    assert leader.average_mb_per_s >= 0


def test_time_to_reach_all_per_block(small_original):
    times = small_original.time_to_reach_all()
    assert len(times) == 5
    assert all(t >= 0 for t in times)


def test_background_traffic_included_when_enabled():
    result = run_dissemination(
        DisseminationConfig(
            gossip=EnhancedGossipConfig.paper_f4(), n_peers=10, blocks=2,
            tx_per_block=2, block_period=0.5, idle_tail=5.0, seed=3,
            background=BackgroundTrafficConfig(period=1.0, fanout=1, message_size=10_000),
        )
    )
    counts = result.bandwidth_report().message_counts()
    assert counts.get("MembershipAlive", 0) > 0


def test_no_background_config_sends_no_background_bytes():
    """``background=None`` is the one off switch: no emitter, no bytes."""
    result = run_dissemination(
        DisseminationConfig(
            gossip=EnhancedGossipConfig.paper_f4(), n_peers=10, blocks=2,
            tx_per_block=2, block_period=0.5, idle_tail=5.0, seed=3, background=None,
        )
    )
    assert "MembershipAlive" not in result.bandwidth_report().message_counts()
    assert all(peer.background is None for peer in result.net.peers.values())


def test_config_validation():
    with pytest.raises(ValueError):
        DisseminationConfig(blocks=0)
    with pytest.raises(ValueError):
        DisseminationConfig(block_period=0.0)


def test_scaled_factory_defaults():
    config = DisseminationConfig.scaled()
    assert config.blocks < 1000
    assert config.n_peers == 100


def test_deterministic_given_seed():
    def run_once():
        result = run_dissemination(
            DisseminationConfig(
                gossip=EnhancedGossipConfig.paper_f4(), n_peers=10, blocks=2,
                tx_per_block=2, block_period=0.5, seed=11,
            )
        )
        return sorted(result.tracker.block_latencies(0).items())

    assert run_once() == run_once()


def _live_bytes_after_run(blocks, background):
    with node_names_interned(100):
        gc.collect()
        tracemalloc.start()
        try:
            result = run_dissemination(
                DisseminationConfig(
                    gossip=EnhancedGossipConfig(fout=4, ttl=9, ttl_direct=2),
                    n_peers=100, blocks=blocks, idle_tail=0.0, background=background,
                )
            )
            gc.collect()
            # A stream's words and generator are held once per stream, not
            # per block, and a promotion lands wherever the stream runs hot.
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(False, "*/repro/simulation/random.py")]
            )
            live = sum(stat.size for stat in snapshot.statistics("filename"))
        finally:
            tracemalloc.stop()
    assert result.coverage_complete()  # keeps the run alive across the reading
    return live


@pytest.mark.parametrize("background", [None, BackgroundTrafficConfig()])
def test_a_run_holds_few_bytes_per_peer_and_block(background):
    """What a run keeps grows by <= 120 B per (peer, block): an 8-byte
    word of seen counters and a list slot of the chain per (peer, block)
    instead of a dict slot and a heap int for the mask and a dict entry
    for the chain (~192-199 B), one reception cell per (peer, block)
    instead of a dict entry per reception and commit (~930-1,000 B
    before that), and the monitor's bytes per (node, bin) instead of a
    receiver dict per (bin, kind, size). It measures 92-99 B; what is
    left is mostly the monitor's rows, the tracker and the blocks. The
    random streams are not counted: what they hold is per stream, and a
    stream promoted between the two run lengths would read as 2.5 KB
    spread over its blocks."""
    grown = _live_bytes_after_run(30, background) - _live_bytes_after_run(10, background)
    assert grown / (100 * 20) <= 120


def _load_script(name):
    path = os.path.join(os.path.dirname(__file__), "..", "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_push_misses_agree_with_the_pair_level_monte_carlo_model():
    """The enhanced push alone (recovery and state info pushed past the
    run) at n=100, fout=4, ttl_direct=2 and TTL 5 misses some peer on
    about one block in five. Over 4 seeds x 300 blocks (numbered 0..299)
    the simulator's per-block miss rate lies within three standard errors
    of the pair-level Monte Carlo model's over 4,000 runs (0.2025 against
    0.1937, z = +0.67), and under the union bound n (1 - 1/n)^m (0.564).
    Its digests per block lie within 4% of what the psi recursion expects
    of counters 3..TTL: the pairs of counters 1 and 2 go as full blocks
    (581.5 against 569.8, +2.0%). The comparison and its bands are
    ``scripts/check_push_misses.py``'s, which runs TTL 6 too."""
    check_push_misses = _load_script("check_push_misses")
    summary, broken = check_push_misses.compare(5, (1, 2, 3, 4), runs=4_000)
    assert not broken, summary


def test_a_coverage_run_reports_a_miss_instead_of_raising():
    """With one forwarding round and no recovery, a 30-peer push cannot
    reach everyone: ``run_coverage`` returns what each block reached,
    counted from block 0, where ``run_dissemination`` raises."""
    config = DisseminationConfig(
        gossip=EnhancedGossipConfig(
            fout=2, ttl=1, ttl_direct=1, recovery=RecoveryConfig(t_recovery=1e9, t_state_info=1e9)
        ),
        n_peers=30,
        blocks=3,
        tx_per_block=5,
        grace_period=5.0,
    )
    run = run_coverage(config)
    reach = run.tracker.coverage(30)
    assert sorted(reach) == [0, 1, 2] and all(1 < count < 30 for count in reach.values())
    assert not run.coverage_complete()
    assert run.bandwidth_report().message_counts()["OrdererBlock"] == 3
    with pytest.raises(TimeoutError):
        run_dissemination(config)
