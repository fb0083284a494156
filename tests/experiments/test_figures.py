"""Tests for figure configuration resolution and series extraction."""

import hashlib

import pytest

from repro.experiments.dissemination import DisseminationConfig, run_dissemination
from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    FIGURE_CONFIGS,
    LATENCY_FIGURES,
    bandwidth_figure,
    block_level_figure,
    figure_config,
    peer_level_figure,
    run_figure,
)
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.scenarios import scenario_names


def test_registry_covers_all_eleven_figures():
    assert set(FIGURE_CONFIGS) == {f"fig{i}" for i in range(4, 15)}
    assert set(LATENCY_FIGURES) | set(BANDWIDTH_FIGURES) == set(FIGURE_CONFIGS)


def test_every_figure_names_a_registered_scenario():
    registered = set(scenario_names())
    assert set(FIGURE_CONFIGS.values()) <= registered


def test_unknown_figure_raises():
    with pytest.raises(KeyError):
        figure_config("fig99")


def test_original_config_uses_fabric_defaults():
    config = figure_config("fig4")
    assert isinstance(config.gossip, OriginalGossipConfig)
    assert config.gossip.fout == 3
    assert config.gossip.t_pull == 4.0


def test_enhanced_configs_use_paper_parameters():
    f4 = figure_config("fig7").gossip
    assert (f4.fout, f4.ttl, f4.ttl_direct, f4.leader_fanout) == (4, 9, 2, 1)
    f2 = figure_config("fig12").gossip
    assert (f2.fout, f2.ttl, f2.ttl_direct) == (2, 19, 3)


def test_ablation_configs():
    fig10 = figure_config("fig10").gossip
    assert fig10.leader_fanout == fig10.fout == 4
    fig11 = figure_config("fig11").gossip
    assert fig11.use_digests is False


def test_full_flag_scales_blocks():
    assert figure_config("fig4", full=True).blocks == 1000
    assert figure_config("fig4", full=False).blocks < 1000


def test_background_toggle():
    assert figure_config("fig4", with_background=True).background is not None
    assert figure_config("fig4", with_background=False).background is None


@pytest.fixture(scope="module")
def tiny_result():
    return run_dissemination(
        DisseminationConfig(
            gossip=EnhancedGossipConfig.paper_f4(), n_peers=10, blocks=3,
            tx_per_block=2, block_period=0.5, seed=4,
        )
    )


def test_peer_level_figure_extraction(tiny_result):
    figure = peer_level_figure(tiny_result, "fig7")
    assert set(figure.curves) == {"fastest", "median", "slowest"}
    assert figure.max_latency() > 0
    for points in figure.curves.values():
        assert all(0 < p.fraction < 1 for p in points)


def test_block_level_figure_extraction(tiny_result):
    figure = block_level_figure(tiny_result, "fig8")
    assert all(len(points) == 10 for points in figure.curves.values())


def test_bandwidth_figure_extraction(tiny_result):
    figure = bandwidth_figure(tiny_result, "fig9")
    assert figure.interval == 10.0
    assert len(figure.leader_series) == len(figure.regular_series)
    assert figure.leader_average >= 0


# SHA-256 over every node of scaled fig6 at seed 1 (101 nodes, 156 one-second
# bins): its tx and rx byte series and its node totals. Recorded when the
# monitor still kept a receiver dict per (bin, kind, size), before it folded
# closed bins into per-node byte rows.
FIG6_SERIES_SHA256 = "d43fd8ba6b20d13df581b7fc84aaf2239403a98d9a75140e5fab28632467f540"


def test_scaled_fig6_series_are_pinned_bit_for_bit():
    """Snapshots and goldens carry only the monitor's whole-run totals;
    this pins the per-node, per-bin series the bandwidth figures are
    drawn from."""
    _, result = run_figure("fig6", seed=1)
    monitor = result.net.network.monitor
    digest = hashlib.sha256()
    for node in monitor.nodes():
        totals = monitor.node_totals(node)
        digest.update(
            repr((
                node,
                monitor.series(node, "tx"),
                monitor.series(node, "rx"),
                totals.messages,
                totals.bytes,
                sorted(totals.by_kind_messages.items()),
                sorted(totals.by_kind_bytes.items()),
            )).encode()
        )
    assert len(monitor.nodes()) == 101
    assert digest.hexdigest() == FIG6_SERIES_SHA256
