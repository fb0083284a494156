"""StreamChain-style ordering (§VII future work).

The paper's discussion cites StreamChain [27]: replacing blocks with a
stream of individually ordered transactions would cut ordering latency
drastically "and put a stronger emphasis on the impact of gossip". The
substrate makes this a one-parameter experiment: blocks of a single
transaction with a near-zero batch timeout turn the ledger into a stream,
and every ordering-side buffering delay disappears — leaving gossip as the
dominant end-to-end latency component, exactly the regime the paper
anticipates.

This module measures end-to-end *commit* latency (transaction creation to
commit at the last peer) under block-based and stream-based ordering, for
both gossip modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.builders import GossipChoice, build_network
from repro.experiments.workloads import HIGH_THROUGHPUT_CHAINCODE_ID
from repro.fabric.config import OrdererConfig, PeerConfig, ValidationMode
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.metrics.latency import LatencyStats
from repro.metrics.report import format_table


@dataclass
class StreamChainResult:
    """Commit-latency outcome of one ordering/gossip combination."""

    label: str
    ordering: str  # "blocks" or "stream"
    gossip: str
    commit_latency: LatencyStats
    dissemination_worst: float
    blocks: int


def _run(
    gossip: GossipChoice,
    stream: bool,
    n_peers: int,
    transactions: int,
    tx_rate: float,
    seed: int,
) -> StreamChainResult:
    orderer_config = (
        OrdererConfig(max_tx_per_block=1, batch_timeout=0.001, consensus_delay=0.01)
        if stream
        else OrdererConfig(max_tx_per_block=50, batch_timeout=2.0, consensus_delay=0.05)
    )
    net = build_network(
        n_peers=n_peers,
        gossip=gossip,
        seed=seed,
        orderer_config=orderer_config,
        peer_config=PeerConfig(
            per_tx_validation_time=0.005, validation_mode=ValidationMode.DELAY_ONLY
        ),
    )
    net.start()
    # Drive the orderer with individually submitted transactions at a fixed
    # rate; under stream ordering each becomes its own "block". Every
    # submission is a fresh proposal stamped with its creation time, so
    # commit latency is measured end to end *including* the batch wait —
    # the delay StreamChain eliminates.
    from repro.ledger.rwset import ReadWriteSet
    from repro.ledger.transaction import TransactionProposal

    def submit(index: int) -> None:
        proposal = TransactionProposal(
            tx_id=f"stream-{index}",
            client="driver",
            chaincode_id=HIGH_THROUGHPUT_CHAINCODE_ID,
            args=("asset", 1, index),
            rwset=ReadWriteSet(),
            created_at=net.sim.now,
        )
        net.orderer.submit(proposal)

    for index in range(transactions):
        net.sim.schedule_at(0.5 + index / tx_rate, submit, index)

    def finished() -> bool:
        cut = net.orderer.blocks_cut
        if net.orderer.transactions_ordered < transactions:
            return False
        return cut > 0 and all(peer.ledger_height >= cut for peer in net.peers.values())

    horizon = 0.5 + transactions / tx_rate
    net.run_until(finished, step=1.0, max_time=horizon + 120.0)

    # Per-transaction commit latency: creation -> commit at the LAST peer.
    samples: List[float] = []
    tracker = net.tracker
    reference = net.peers[net.peer_names[0]]
    for block in tracker.blocks():
        committed = reference.blockchain.get_committed(block)
        last_commit = tracker.last_commit(block)
        if committed is None or last_commit is None:
            continue
        samples.extend(last_commit - tx.created_at for tx in committed.transactions)
    dissemination_worst = max(
        (value for _, value in tracker.block_ranking()), default=0.0
    )
    return StreamChainResult(
        label=f"{'stream' if stream else 'blocks'}/{type(gossip).__name__}",
        ordering="stream" if stream else "blocks",
        gossip=type(gossip).__name__,
        commit_latency=LatencyStats.from_samples(samples),
        dissemination_worst=dissemination_worst,
        blocks=net.orderer.blocks_cut,
    )


def run_streamchain_study(
    n_peers: int = 50,
    transactions: int = 150,
    tx_rate: float = 25.0,
    seed: int = 1,
) -> List[StreamChainResult]:
    """Four cells: {blocks, stream} × {original, enhanced} gossip."""
    results = []
    for stream in (False, True):
        for gossip in (OriginalGossipConfig(), EnhancedGossipConfig.paper_f4()):
            results.append(
                _run(gossip, stream, n_peers, transactions, tx_rate, seed)
            )
    return results


def render_streamchain_study(results: List[StreamChainResult]) -> str:
    return format_table(
        ["ordering", "gossip", "blocks", "commit p50 (s)", "commit p99 (s)",
         "commit worst (s)", "dissemination worst (s)"],
        [
            [
                result.ordering,
                "original" if "Original" in result.gossip else "enhanced",
                result.blocks,
                result.commit_latency.p50,
                result.commit_latency.p99,
                result.commit_latency.maximum,
                result.dissemination_worst,
            ]
            for result in results
        ],
        title="StreamChain study: ordering granularity x gossip module (§VII)",
    )
