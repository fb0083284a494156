"""The original Fabric v1.2 gossip module: push + pull + recovery."""

from __future__ import annotations

from repro.gossip.base import GossipModule
from repro.gossip.config import OriginalGossipConfig
from repro.gossip.messages import (
    BlockPush,
    PullBlockRequest,
    PullBlockResponse,
    PullDigestRequest,
    PullDigestResponse,
    RecoveryRequest,
    RecoveryResponse,
    StateInfo,
)
from repro.gossip.pull import PullComponent
from repro.gossip.push_infect_die import InfectAndDiePush
from repro.gossip.recovery import RecoveryComponent
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block


class OriginalGossip(GossipModule):
    """Fabric's stock gossip: infect-and-die push, periodic pull, recovery.

    The leader peer receives each block from the ordering service and is
    the first infected peer: it pushes the block to ``fout`` random peers,
    exactly like any other first reception (paper §III-A, Fig. 3).
    """

    __slots__ = ("config", "push", "pull", "recovery")

    def __init__(self, host, view: OrganizationView, config: OriginalGossipConfig) -> None:
        super().__init__(host, view)
        self.config = config
        deliver = host.deliver_block
        self.push = InfectAndDiePush(
            host,
            view,
            fout=config.fout,
            t_push=config.t_push,
            buffer_max=config.push_buffer_max,
            multicast=self._multicast,
        )
        self.pull = PullComponent(
            host,
            view,
            fin=config.fin,
            t_pull=config.t_pull,
            digest_window=config.pull_digest_window,
            deliver=deliver,
            multicast=self._multicast,
        )
        self.recovery = RecoveryComponent(
            host,
            view,
            t_recovery=config.recovery.t_recovery,
            t_state_info=config.recovery.t_state_info,
            state_info_fanout=config.recovery.state_info_fanout,
            batch_max=config.recovery.batch_max,
            deliver=deliver,
            multicast=self._multicast,
        )

    def components(self) -> tuple:
        return (self, self.push, self.pull, self.recovery)

    def _start_components(self) -> None:
        if self.config.fin > 0:
            self.pull.start()
        self.recovery.start()

    def on_block_from_orderer(self, block: Block) -> None:
        if self._deliver(block, via="orderer"):
            self.push.on_first_reception(block)

    def _on_block_push(self, src: str, message: BlockPush) -> None:
        if self._deliver(message.block, via="push"):
            self.push.on_first_reception(message.block)

    # Exact-type routes over components(); see GossipModule.ROUTES.
    ROUTES = {
        BlockPush: (0, _on_block_push),
        PullDigestRequest: (2, PullComponent.on_digest_request),
        PullDigestResponse: (2, PullComponent.on_digest_response),
        PullBlockRequest: (2, PullComponent.on_block_request),
        PullBlockResponse: (2, PullComponent.on_block_response),
        StateInfo: (3, RecoveryComponent.on_state_info),
        RecoveryRequest: (3, RecoveryComponent.on_recovery_request),
        RecoveryResponse: (3, RecoveryComponent.on_recovery_response),
    }
