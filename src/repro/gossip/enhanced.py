"""The paper's enhanced gossip module.

Combines the four enhancements of Table I:

1. infect-upon-contagion push with TTL counters;
2. push digests beyond ``ttl_direct``;
3. randomized initial gossiper: the leader forwards each block, in full and
   with counter 0, to ``leader_fanout`` (default 1) random peers — on
   expectation this spreads the initiation of gossip uniformly over the
   other ``n - 1`` peers and removes the leader's ``fout``× bandwidth
   burden;
4. no pull component; recovery is retained unchanged as the safety net.
"""

from __future__ import annotations

from repro.gossip.base import GossipModule
from repro.gossip.config import EnhancedGossipConfig
from repro.gossip.messages import (
    BlockPush,
    PushDigest,
    PushRequest,
    RecoveryRequest,
    RecoveryResponse,
    StateInfo,
)
from repro.gossip.push_infect_contagion import InfectUponContagionPush
from repro.gossip.recovery import RecoveryComponent
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.simulation.random import first_draw


class EnhancedGossip(GossipModule):
    """Enhanced dissemination (paper §IV)."""

    STREAM = "leader-initial-gossiper"  # drawn by the leader only

    __slots__ = ("config", "push", "recovery", "_rng", "_deliver_block")

    def __init__(self, host, view: OrganizationView, config: EnhancedGossipConfig) -> None:
        super().__init__(host, view)
        self.config = config
        # Bound once: BlockPush handling calls it on every reception.
        self._deliver_block = host.deliver_block
        self.push = InfectUponContagionPush(
            host,
            view,
            fout=config.fout,
            ttl=config.ttl,
            ttl_direct=config.ttl_direct,
            use_digests=config.use_digests,
            request_timeout=config.request_timeout,
            request_retries=config.request_retries,
            retry_backoff=config.retry_backoff,
            multicast=self._multicast,
        )
        self.recovery = RecoveryComponent(
            host,
            view,
            t_recovery=config.recovery.t_recovery,
            t_state_info=config.recovery.t_state_info,
            state_info_fanout=config.recovery.state_info_fanout,
            batch_max=config.recovery.batch_max,
            deliver=self._deliver,
            multicast=self._multicast,
        )
        self._rng = None  # bound by first_draw

    def components(self) -> tuple:
        return (self, self.push, self.recovery)

    def _start_components(self) -> None:
        self.recovery.start()

    def on_block_from_orderer(self, block: Block) -> None:
        """Leader entry point: delegate initiation to random peer(s).

        With ``leader_fanout = 1`` the leader only transmits each block
        once; the receiving peer becomes the initial gossiper (it receives
        the pair ``(block, 0)`` and forwards ``(block, 1)``). The Fig. 10
        ablation sets ``leader_fanout = fout``, making the leader initiate
        the dissemination itself like any infected peer would.
        """
        self._deliver(block, via="orderer")
        # The leader marks the pair (block, 0) as seen so a later echo of
        # the epidemic does not make it act as a second initial gossiper,
        # but it does NOT forward: initiation is delegated.
        self.push.mark_seen(block.number, 0)
        targets = self.view.sample_org(self._rng or first_draw(self), self.config.leader_fanout)
        self._multicast(targets, BlockPush(block, counter=0))

    def _on_block_push(self, src: str, message: BlockPush) -> None:
        block = message.block
        self._deliver_block(block, "push")
        self.push.on_pair(block, message.counter)

    def _deliver(self, block: Block, via: str) -> bool:
        """A block that arrives without a pair (from the orderer, or by
        recovery) settles the push's digest state for it too: pairs queued
        while it was missing are forwarded and queued requests served."""
        if not self._deliver_block(block, via):
            return False
        self.push.settle(block)
        return True

    # Exact-type routes over components(): one dict probe per message
    # instead of an isinstance chain (message classes are final by
    # convention).
    ROUTES = {
        BlockPush: (0, _on_block_push),
        PushDigest: (1, InfectUponContagionPush.on_digest),
        PushRequest: (1, InfectUponContagionPush.on_request),
        StateInfo: (2, RecoveryComponent.on_state_info),
        RecoveryRequest: (2, RecoveryComponent.on_recovery_request),
        RecoveryResponse: (2, RecoveryComponent.on_recovery_response),
    }
