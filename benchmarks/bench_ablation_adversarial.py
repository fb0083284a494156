"""Ablation (§VII future work): adversarial peers.

The paper leaves block-withholding adversaries to future work. This bench
measures 10% adversarial peers (n=100) in three scenarios:

* **enhanced / free-riders** (:class:`LazyForwarderFault` at
  ``drop_prob=1.0``, the paper's silent peer): adversaries stop
  forwarding and advertising; the enhanced push absorbs the lost capacity
  with its redundancy budget and stays fast;
* **enhanced / teasers** (:class:`TeasingPeerFault`): adversaries keep
  advertising digests but never deliver a requested block — capturing
  honest peers' single in-flight request and forcing retry/recovery. This
  quantifies the countermeasure gap §VII calls out;
* **original / free-riders**: the baseline leans on its adversary-free
  (but slow) pull phase.

Dissemination completes in every scenario.
"""

from benchmarks.conftest import run_once
from repro.experiments.builders import build_network
from repro.experiments.dissemination import DisseminationConfig, DisseminationResult
from repro.experiments.workloads import synthetic_block_transactions
from repro.fabric.config import PeerConfig, ValidationMode
from repro.faults.adversaries import LazyForwarderFault
from repro.faults.injectors import TeasingPeerFault
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.metrics.probability_plot import tail_latency
from repro.metrics.report import format_table


def _free_riders(net, peers) -> None:
    LazyForwarderFault(net.network, peers, 1.0, net.streams)


def _teasers(net, peers) -> None:
    TeasingPeerFault(net.network, peers)


def _run(gossip, full: bool, seed: int, arm_fault, fraction: float = 0.10):
    blocks = 100 if full else 30
    config = DisseminationConfig(gossip=gossip, blocks=blocks, seed=seed, grace_period=180.0)
    net = build_network(
        n_peers=config.n_peers, gossip=config.gossip, seed=config.seed,
        peer_config=PeerConfig(validation_mode=ValidationMode.DELAY_ONLY),
    )
    adversaries = net.regular_peers()[: int(config.n_peers * fraction)]
    arm_fault(net, adversaries)
    net.start()
    transactions = synthetic_block_transactions(config.tx_per_block, config.tx_size)
    for index in range(config.blocks):
        net.sim.schedule_at((index + 1) * config.block_period, net.orderer.emit_block, transactions)
    workload_end = config.blocks * config.block_period
    net.run_until(
        lambda: net.sim.now >= workload_end and net.all_peers_received(config.blocks),
        step=1.0, max_time=workload_end + config.grace_period,
    )
    return DisseminationResult(config=config, net=net, duration=net.sim.now, workload_end=workload_end)


def test_ablation_adversarial_peers(benchmark, full_scale):
    def experiment():
        return {
            "enhanced / free-riders": _run(EnhancedGossipConfig.paper_f4(), full_scale, 1, _free_riders),
            "enhanced / teasers": _run(EnhancedGossipConfig.paper_f4(), full_scale, 1, _teasers),
            "original / free-riders": _run(OriginalGossipConfig(), full_scale, 1, _free_riders),
        }

    results = run_once(benchmark, experiment)

    rows = []
    for label, result in results.items():
        latencies = result.tracker.all_latencies()
        rows.append([
            label,
            tail_latency(latencies, 0.5),
            tail_latency(latencies, 0.95),
            max(latencies),
            result.pull_usage(),
            result.recovery_usage(),
        ])
    print()
    print(format_table(
        ["scenario", "median (s)", "p95 (s)", "worst (s)", "via pull", "via recovery"],
        rows,
        title="10% adversarial peers at n=100 (paper §VII future work)",
    ))

    free_riders = results["enhanced / free-riders"]
    teasers = results["enhanced / teasers"]
    original = results["original / free-riders"]

    # Everything still completes.
    assert all(result.coverage_complete() for result in results.values())
    # Free-riders barely hurt the enhanced module.
    assert max(free_riders.tracker.all_latencies()) < 1.0
    # Teasers capture in-flight requests: retries/recovery become visible.
    assert max(teasers.tracker.all_latencies()) > max(free_riders.tracker.all_latencies())
    # The original module leans on pull under free-riders.
    assert original.pull_usage() > 0
