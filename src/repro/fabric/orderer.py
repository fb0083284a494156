"""The ordering service.

Abstracts the paper's Kafka (4 brokers) + Zookeeper (3 nodes) CFT setup as
a single logical service with Fabric's exact block-cutting rules: a block
is cut when it holds ``max_tx_per_block`` transactions, or when the batch
timeout expires, counted from the arrival of the batch's *first*
transaction (paper §II-B: "a new block is proposed for consensus when its
size reaches a maximal size, or after a timer expires"). The timeout
carries its batch's number and does nothing if that batch was already cut
by size: a scheduled event is final. A configurable
``consensus_delay`` models the ordering round trip, after which the block
is final and sent, once, to the leader peer of every organization.

Orderers never validate transaction contents (paper §II-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabric.config import OrdererConfig
from repro.fabric.messages import OrdererBlock, SubmitTransaction
from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
from repro.ledger.transaction import TransactionProposal
from repro.metrics.latency import DisseminationTracker
from repro.net.network import Network
from repro.simulation.process import Process
from repro.simulation.random import RandomStreams


class OrderingService(Process):
    """The (abstracted) CFT ordering service."""

    def __init__(
        self,
        sim,
        network: Network,
        streams: RandomStreams,
        name: str = "orderer",
        config: Optional[OrdererConfig] = None,
        org_leaders: Optional[Dict[str, str]] = None,
        tracker: Optional[DisseminationTracker] = None,
    ) -> None:
        super().__init__(sim, name, streams)
        self.network = network
        self.config = config or OrdererConfig()
        self.org_leaders = dict(org_leaders or {})
        self.tracker = tracker
        self._buffer: List[TransactionProposal] = []
        self._batch = 0  # number of the open batch: batches cut so far
        self._next_number = 0
        self._tip_hash = GENESIS_PREVIOUS_HASH
        self.blocks_cut = 0
        self.transactions_ordered = 0
        network.register(self.name, (self.ROUTES, self))

    @property
    def pending_transactions(self) -> int:
        """Ordered transactions still waiting in the current (uncut) batch.

        Experiments that account for every submitted transaction must wait
        for this to reach zero: the batch timeout runs from the batch's
        first transaction, so a final partial batch can stay uncut for up
        to one timeout after the workload stops issuing.
        """
        return len(self._buffer)

    # ----- ingestion --------------------------------------------------------

    def _on_submit(self, src: str, message: SubmitTransaction) -> None:
        if self._alive:
            self.submit(message.proposal)

    # Exact-type routes over the routes ``(ROUTES, self)`` the constructor
    # registers; see repro.gossip.base.GossipModule.ROUTES.
    ROUTES = {SubmitTransaction: (1, _on_submit)}

    def submit(self, proposal: TransactionProposal) -> None:
        """Accept a proposal into the current batch (no validation)."""
        self._buffer.append(proposal)
        self.transactions_ordered += 1
        if len(self._buffer) >= self.config.max_tx_per_block:
            self._cut()
        elif len(self._buffer) == 1:
            # Fabric's BatchTimeout counts from the first tx of the batch.
            self.sim.schedule(self.config.batch_timeout, self._on_timeout, self._batch)

    def _on_timeout(self, batch: int) -> None:
        if batch == self._batch:
            self._cut()

    # ----- block cutting & consensus ---------------------------------------

    def _cut(self) -> None:
        self._batch += 1
        transactions, self._buffer = self._buffer, []
        self._seal(transactions)

    def _seal(self, transactions: List[TransactionProposal]) -> Block:
        """Chain the next block onto the tip and finalize it after the
        ordering round trip (consensus)."""
        block = Block.create(
            number=self._next_number,
            previous_hash=self._tip_hash,
            transactions=transactions,
            cut_at=self.now,
        )
        self._next_number += 1
        self._tip_hash = block.block_hash
        self.blocks_cut += 1
        if self.tracker is not None:
            self.tracker.block_cut(block.number, self.now)
        self.after(self.config.consensus_delay, self._finalize, block)
        return block

    def _finalize(self, block: Block) -> None:
        for leader in self.org_leaders.values():
            self.network.send(self.name, leader, OrdererBlock(block))

    # ----- direct drivers (dissemination experiments) ------------------------

    def emit_block(self, transactions: List[TransactionProposal]) -> Block:
        """Cut and finalize a block immediately from the given transactions.

        Used by the synthetic block driver of the dissemination
        experiments, which models the paper's steady 50-tx/1.5-s block
        arrival process without simulating 50,000 client submissions.
        """
        return self._seal(transactions)
