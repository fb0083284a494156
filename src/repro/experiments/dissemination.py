"""Dissemination experiments: latency and bandwidth (Figs. 4-14).

Reproduces §V-A's setup: n peers in one organization, blocks of
``tx_per_block`` transactions (~160 KB) cut every ``block_period`` seconds
by the ordering service, gossiped to all peers. The runner drives the
orderer directly with synthetic transactions — the paper's 50,000
sequential client transactions exist only to sustain this block arrival
process — then lets the network idle for ``idle_tail`` seconds so the
bandwidth floor is visible (Fig. 6's 1500-2000 s window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.experiments.builders import FabricNetwork, GossipChoice, build_network
from repro.experiments.workloads import synthetic_block_transactions
from repro.fabric.config import PeerConfig, ValidationMode
from repro.gossip.config import BackgroundTrafficConfig, OriginalGossipConfig
from repro.metrics.bandwidth import BandwidthReport, PeerBandwidth
from repro.metrics.latency import DisseminationTracker, LatencyStats
from repro.net.network import NetworkConfig
from repro.simulation import collector

# Paper §V-A: 1,000 blocks of 50 transactions (~160 KB) every ~1.5 s.
PAPER_BLOCKS = 1_000
PAPER_BLOCK_PERIOD = 1.5
PAPER_TX_PER_BLOCK = 50
PAPER_TX_SIZE = 3_200
PAPER_N_PEERS = 100


@dataclass
class DisseminationConfig:
    """One dissemination run."""

    gossip: GossipChoice = field(default_factory=OriginalGossipConfig)
    n_peers: int = PAPER_N_PEERS
    blocks: int = PAPER_BLOCKS
    block_period: float = PAPER_BLOCK_PERIOD
    tx_per_block: int = PAPER_TX_PER_BLOCK
    tx_size: int = PAPER_TX_SIZE
    seed: int = 1
    idle_tail: float = 0.0
    grace_period: float = 60.0  # post-workload settling before measurement ends
    background: Optional[BackgroundTrafficConfig] = None
    network: Optional[NetworkConfig] = None
    per_tx_validation_time: float = 0.004  # keeps 50-tx validation < period
    # Multi-organization / multi-region deployments (scenario subsystem).
    organizations: int = 1
    org_regions: Optional[Dict[str, str]] = None
    orderer_region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.n_peers < 2:
            raise ValueError("need at least 1 block and 2 peers")
        if self.block_period <= 0:
            raise ValueError("block_period must be positive")

    @classmethod
    def scaled(cls, **overrides) -> "DisseminationConfig":
        """A laptop-scale configuration with the paper's shape.

        Fewer blocks over a shorter horizon; everything else (peers, block
        size, cadence, protocol parameters) is unchanged, so latency
        distributions and per-second bandwidth are directly comparable.
        """
        defaults = dict(blocks=60, idle_tail=60.0)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class DisseminationResult:
    """Outcome of one dissemination run."""

    config: DisseminationConfig
    net: FabricNetwork
    duration: float
    workload_end: float

    @property
    def tracker(self) -> DisseminationTracker:
        return self.net.tracker

    # ----- latency views (Figs. 4/5/7/8/12/13) -----------------------------

    def peer_level_series(self) -> Dict[str, List[float]]:
        """Latency samples for the fastest/median/slowest peers."""
        fastest, median, slowest = self.tracker.fastest_median_slowest_peers()
        return {
            "fastest": self.tracker.peer_latencies(fastest),
            "median": self.tracker.peer_latencies(median),
            "slowest": self.tracker.peer_latencies(slowest),
        }

    def block_level_series(self) -> Dict[str, List[float]]:
        """Latency samples for the fastest/median/slowest blocks."""
        fastest, median, slowest = self.tracker.fastest_median_slowest_blocks()
        return {
            "fastest": list(self.tracker.block_latencies(fastest).values()),
            "median": list(self.tracker.block_latencies(median).values()),
            "slowest": list(self.tracker.block_latencies(slowest).values()),
        }

    def latency_summary(self) -> LatencyStats:
        return self.tracker.summary()

    def time_to_reach_all(self) -> List[float]:
        """Per block, the time for it to reach every peer."""
        return [value for _, value in self.tracker.block_ranking()]

    # ----- bandwidth views (Figs. 6/9/10/11/14) -------------------------------

    def bandwidth_report(self, aggregation_interval: float = 10.0) -> BandwidthReport:
        return BandwidthReport(
            self.net.network.monitor,
            end_time=self.duration,
            aggregation_interval=aggregation_interval,
        )

    def leader_bandwidth(self) -> PeerBandwidth:
        leader = next(iter(self.net.leaders.values()))
        return self.bandwidth_report().peer_utilization(leader)

    def regular_peer_bandwidth(self, index: int = 0) -> PeerBandwidth:
        regulars = self.net.regular_peers()
        return self.bandwidth_report().peer_utilization(regulars[index % len(regulars)])

    def average_regular_peer_mb_per_s(self) -> float:
        """Mean utilization over all non-leader peers, workload window only."""
        report = BandwidthReport(
            self.net.network.monitor,
            end_time=self.workload_end,
            aggregation_interval=10.0,
        )
        return report.average_over(self.net.regular_peers())

    def average_leader_mb_per_s(self) -> float:
        """Leader utilization over the same workload window, for fair
        leader-vs-regular comparisons (Fig. 10)."""
        report = BandwidthReport(
            self.net.network.monitor,
            end_time=self.workload_end,
            aggregation_interval=10.0,
        )
        leader = next(iter(self.net.leaders.values()))
        return report.average_over([leader])

    # ----- health checks ------------------------------------------------------

    def coverage_complete(self) -> bool:
        """Every block reached every peer."""
        expected = self.net.n_peers
        coverage = self.tracker.coverage(expected)
        return len(coverage) == self.config.blocks and all(
            count == expected for count in coverage.values()
        )

    def recovery_usage(self) -> int:
        """Blocks that had to be fetched by the recovery component."""
        return sum(peer.blocks_received_via.get("recovery", 0) for peer in self.net.peers.values())

    def pull_usage(self) -> int:
        """Blocks obtained via the pull component (original module only)."""
        return sum(peer.blocks_received_via.get("pull", 0) for peer in self.net.peers.values())


def deploy(
    config: DisseminationConfig,
    prepare: Optional[Callable[[FabricNetwork], None]] = None,
    owned: Optional[FrozenSet[str]] = None,
) -> FabricNetwork:
    """Build ``config``'s deployment, arm it and schedule its blocks.

    ``prepare(net)``, when given, runs after the network is built and
    before any timer is armed — the scenario subsystem uses it to compile
    and arm declarative fault schedules against the fresh deployment.
    ``owned`` names the nodes this process executes (a shard worker;
    ``None`` executes everything): only they are built
    (:func:`~repro.experiments.builders.build_network`), and the block
    driver is scheduled only where the orderer is.
    """
    net = build_network(
        n_peers=config.n_peers,
        gossip=config.gossip,
        seed=config.seed,
        organizations=config.organizations,
        network_config=config.network,
        peer_config=PeerConfig(
            per_tx_validation_time=config.per_tx_validation_time,
            validation_mode=ValidationMode.DELAY_ONLY,
        ),
        background=config.background,
        org_regions=config.org_regions,
        orderer_region=config.orderer_region,
        owned=owned,
    )
    if prepare is not None:
        prepare(net)
    net.start()
    if net.orderer is not None:
        transactions = synthetic_block_transactions(config.tx_per_block, config.tx_size)
        for index in range(config.blocks):
            net.sim.schedule_at(
                (index + 1) * config.block_period,
                net.orderer.emit_block,
                transactions,
            )
    return net


def run_dissemination(
    config: DisseminationConfig,
    prepare: Optional[Callable[[FabricNetwork], None]] = None,
) -> DisseminationResult:
    """Execute one dissemination experiment end to end (``prepare`` as in
    :func:`deploy`)."""
    with collector.deployment() as built:
        net = deploy(config, prepare)
        built()

        workload_end = config.blocks * config.block_period
        # Let dissemination complete: all peers hold all blocks. The recovery
        # period bounds how long a (theoretically possible) push miss can take.
        deadline = workload_end + config.grace_period
        net.run_until(
            lambda: net.sim.now >= workload_end and net.all_peers_received(config.blocks),
            step=1.0,
            max_time=deadline,
        )
        end_of_measurement = net.sim.now + config.idle_tail
        if config.idle_tail > 0:
            net.sim.run(until=end_of_measurement)
    return DisseminationResult(
        config=config,
        net=net,
        duration=end_of_measurement,
        workload_end=workload_end,
    )


def run_coverage(config: DisseminationConfig) -> DisseminationResult:
    """Run ``config``'s workload plus its grace period, whatever each block
    reached by then (``result.tracker.coverage(n)``).

    Unlike :func:`run_dissemination` it neither waits for every peer to
    hold every block nor fails when one does not: a push that misses a
    peer is what it measures. Push the recovery periods past the run to
    measure the push alone.
    """
    with collector.deployment() as built:
        net = deploy(config)
        built()
        workload_end = config.blocks * config.block_period
        duration = workload_end + config.grace_period
        net.sim.run(until=duration)
    return DisseminationResult(
        config=config,
        net=net,
        duration=duration,
        workload_end=workload_end,
    )
