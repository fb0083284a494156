"""The Table II consistency experiment.

Setup (§V-D): a single endorsing peer; a client issuing counter increments
at 5 tx/s over 100 integers, each incremented ``increments_per_key`` times
with a fresh random permutation per round; the orderer's batch timeout set
to the block period under study (0.75-2 s); validation costing ~50 ms per
transaction. Conflicted transactions are not resent. The number of
validation-time conflicts is both counted directly (MVCC failures) and
cross-checked the paper's way: total transactions minus the sum of the
final counters in the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.crypto.identity import Identity
from repro.experiments.builders import FabricNetwork, GossipChoice, build_network
from repro.experiments.workloads import CounterIncrementWorkload
from repro.fabric.chaincode import CounterIncrementChaincode
from repro.fabric.client import Client
from repro.fabric.config import OrdererConfig, PeerConfig, ValidationMode
from repro.fabric.endorsement import EndorsementPolicy
from repro.gossip.config import BackgroundTrafficConfig, OriginalGossipConfig
from repro.net.network import NetworkConfig
from repro.simulation import collector

PAPER_KEYS = 100
PAPER_INCREMENTS_PER_KEY = 100
PAPER_TX_RATE = 5.0
PAPER_PER_TX_VALIDATION = 0.050


@dataclass
class ConflictExperimentConfig:
    """One Table II cell (a block period and a gossip module)."""

    gossip: GossipChoice = field(default_factory=OriginalGossipConfig)
    block_period: float = 2.0
    n_peers: int = 100
    keys: int = PAPER_KEYS
    increments_per_key: int = PAPER_INCREMENTS_PER_KEY
    tx_rate: float = PAPER_TX_RATE
    per_tx_validation_time: float = PAPER_PER_TX_VALIDATION
    seed: int = 1
    endorser: Optional[str] = None  # default: a non-leader peer
    background: Optional[BackgroundTrafficConfig] = None
    network: Optional[NetworkConfig] = None

    @property
    def total_transactions(self) -> int:
        return self.keys * self.increments_per_key

    @classmethod
    def scaled(cls, **overrides) -> "ConflictExperimentConfig":
        """Laptop-scale cell: same 100-peer network (the push-miss rate of
        infect-and-die depends on n, so shrinking the network would hide
        the tail the experiment studies), but a hotter key set — 20 keys
        reused every ~4 s instead of 100 every ~20 s — so that 1,000
        transactions produce enough conflicts for stable comparisons."""
        defaults = dict(n_peers=100, keys=20, increments_per_key=50)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class ConflictResult:
    """Outcome of one Table II cell."""

    config: ConflictExperimentConfig
    net: FabricNetwork
    invalidated: int
    invalidated_by_ledger: int
    proposal_conflicts: int
    blocks: int
    tx_ordered: int
    duration: float
    final_counters: Dict[str, int]

    @property
    def tx_per_block(self) -> float:
        return self.tx_ordered / self.blocks if self.blocks else 0.0

    @property
    def validation_time_per_block(self) -> float:
        return self.tx_per_block * self.config.per_tx_validation_time

    @property
    def invalidation_rate(self) -> float:
        return self.invalidated / self.tx_ordered if self.tx_ordered else 0.0


def run_conflict_experiment(config: ConflictExperimentConfig) -> ConflictResult:
    """Run one cell of Table II."""
    with collector.deployment() as built:
        net = build_network(
            n_peers=config.n_peers,
            gossip=config.gossip,
            seed=config.seed,
            network_config=config.network,
            peer_config=PeerConfig(
                per_tx_validation_time=config.per_tx_validation_time,
                validation_mode=ValidationMode.FULL,
            ),
            orderer_config=OrdererConfig(
                max_tx_per_block=50,
                batch_timeout=config.block_period,
            ),
            background=config.background,
            policy=EndorsementPolicy.any_single(),
        )

        # Single endorsing peer (paper §V-D); a regular (non-leader) peer so
        # its view of the chain depends on gossip like any other's.
        endorser_name = config.endorser or net.regular_peers()[len(net.regular_peers()) // 2]
        endorser = net.peers[endorser_name]
        endorser.chaincodes.install(CounterIncrementChaincode())

        workload = CounterIncrementWorkload(
            keys=config.keys,
            increments_per_key=config.increments_per_key,
            rng=net.streams.stream("workload:permutations"),
        )
        client = Client(
            net.sim,
            net.network,
            net.streams,
            Identity("client-0", "client-org", "client"),
            endorsers=[endorser_name],
            orderer=net.orderer.name,
            workload=workload,
            rate=config.tx_rate,
        )
        net.start()
        client.start()
        built()

        total = config.total_transactions
        # The workload takes total/rate seconds to issue, plus ordering,
        # dissemination and validation drain time.
        issue_time = total / config.tx_rate
        max_time = issue_time + 30 * config.block_period + 120.0

        def finished() -> bool:
            if not client.idle:
                return False
            if net.orderer.transactions_ordered < client.stats.proposals_submitted:
                return False
            if net.orderer.pending_transactions:
                # A final partial batch is still waiting for its timeout; the
                # ledger cross-check needs every ordered transaction validated.
                return False
            blocks_cut = net.orderer.blocks_cut
            return all(peer.ledger_height >= blocks_cut for peer in net.peers.values())

        net.run_until(finished, step=1.0, max_time=max_time)

    # Cross-check the paper's counting: conflicts = submitted - sum(counters).
    reference = net.peers[net.regular_peers()[0]]
    final_counters = {
        key: int(value)
        for key, value in reference.state.snapshot_values().items()
        if key.startswith("counter-")
    }
    applied = sum(final_counters.values())
    invalidated_by_ledger = client.stats.proposals_submitted - applied

    return ConflictResult(
        config=config,
        net=net,
        invalidated=net.conflicts.invalidated_transactions,
        invalidated_by_ledger=invalidated_by_ledger,
        proposal_conflicts=client.stats.proposal_time_conflicts,
        blocks=net.orderer.blocks_cut,
        tx_ordered=net.orderer.transactions_ordered,
        duration=net.sim.now,
        final_counters=final_counters,
    )
