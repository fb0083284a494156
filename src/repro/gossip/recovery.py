"""Recovery (anti-entropy) component, common to both modules.

Peers periodically gossip state-info metadata carrying their ledger height
— across the whole channel, not only their organization (paper §III-A).
Every ``t_recovery`` seconds (default 10 s) a peer compares its height with
the highest observed one and, if behind, requests the consecutive missing
blocks (in bounded batches) from one of the most advanced peers.

In a stable network with a well-tuned push phase, recovery never fires for
dissemination (the paper observed exactly this); it remains essential after
crashes, outages, or when a peer joins.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gossip.messages import RecoveryRequest, RecoveryResponse, StateInfo
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.simulation.random import first_draw


class RecoveryComponent:
    """State-info gossip + batch catch-up."""

    STREAM = "recovery"

    __slots__ = (
        "host",
        "view",
        "t_recovery",
        "t_state_info",
        "state_info_fanout",
        "batch_max",
        "_deliver",
        "_rng",
        "_multicast",
        "known_heights",
        "recovery_requests_sent",
        "blocks_recovered",
    )

    def __init__(
        self,
        host,
        view: OrganizationView,
        t_recovery: float,
        t_state_info: float,
        state_info_fanout: int,
        batch_max: int,
        deliver,
        multicast=None,
    ) -> None:
        """
        Args:
            host: the gossip host (peer adapter).
            view: membership view (state info crosses organizations).
            t_recovery: recovery check period.
            t_state_info: state info broadcast period.
            state_info_fanout: peers contacted per state-info round.
            batch_max: maximum blocks fetched per recovery request.
            deliver: callable ``(block, via) -> bool``.
            multicast: the host's ``multicast``, when the caller has it
                bound already (the gossip module binds it once per peer).
        """
        self.host = host
        self.view = view
        self.t_recovery = t_recovery
        self.t_state_info = t_state_info
        self.state_info_fanout = state_info_fanout
        self.batch_max = batch_max
        self._deliver = deliver
        self._rng = None  # bound by first_draw
        self._multicast = multicast or host.multicast
        self.known_heights: Dict[str, int] = {}
        self.recovery_requests_sent = 0
        self.blocks_recovered = 0

    def start(self) -> None:
        """Arm state-info gossip and the recovery check, phase-staggered."""
        rng = self._rng or first_draw(self)
        state_phase = rng.uniform(0.0, self.t_state_info)
        recovery_phase = rng.uniform(0.0, self.t_recovery)
        self.host.every(self.t_state_info, self._broadcast_state_info, initial_delay=state_phase)
        self.host.every(self.t_recovery, self._check, initial_delay=recovery_phase)

    # ----- state info ----------------------------------------------------

    def _broadcast_state_info(self) -> None:
        targets = self.view.sample_channel(self._rng or first_draw(self), self.state_info_fanout)
        if targets:
            # One shared StateInfo for the whole fanout (receivers only
            # read the height), multicast as a single pooled network event.
            self._multicast(targets, StateInfo(self.host.ledger_height))

    def on_state_info(self, src: str, message: StateInfo) -> None:
        previous = self.known_heights.get(src, 0)
        if message.height > previous:
            self.known_heights[src] = message.height

    # ----- catch-up -------------------------------------------------------

    def _check(self) -> None:
        if not self.known_heights:
            return
        best_height = max(self.known_heights.values())
        my_height = self.host.ledger_height
        if best_height <= my_height:
            return
        # Ask one of the most advanced peers for the next missing batch.
        best_peers = [name for name, height in self.known_heights.items() if height == best_height]
        target = (self._rng or first_draw(self)).choice(best_peers)
        to_number = min(best_height, my_height + self.batch_max)
        self.host.send(target, RecoveryRequest(my_height, to_number))
        self.recovery_requests_sent += 1

    def on_recovery_request(self, src: str, message: RecoveryRequest) -> None:
        blocks: List[Block] = []
        for number in range(message.from_number, message.to_number):
            block = self.host.get_block(number)
            if block is None:
                break  # only consecutive blocks are useful to the requester
            blocks.append(block)
            if len(blocks) >= self.batch_max:
                break
        if blocks:
            self.host.send(src, RecoveryResponse(blocks))

    def on_recovery_response(self, src: str, message: RecoveryResponse) -> None:
        for block in message.blocks:
            if self._deliver(block, via="recovery"):
                self.blocks_recovered += 1
