"""Fabric's original pull component.

Every ``t_pull`` seconds (default 4 s) a peer contacts ``fin`` (default 3)
random peers of its organization with a digest request; each responds with
the block numbers it holds in a recent window; the initiator then requests
every block it lacks — each missing block from a single advertiser — and
the advertisers reply with the full blocks. Blocks obtained through pull do
not trigger the push component (paper §III-A).

The pull period is what produces the heavy latency tail of the original
module: a peer missed by the push phase waits, on average, half a pull
period (2 s) and possibly several periods before obtaining the block.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.gossip.messages import (
    PullBlockRequest,
    PullBlockResponse,
    PullDigestRequest,
    PullDigestResponse,
)
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.simulation.random import first_draw


class PullComponent:
    """Periodic digest-based pull."""

    STREAM = "pull-targets"

    __slots__ = (
        "host",
        "view",
        "fin",
        "t_pull",
        "digest_window",
        "_deliver",
        "_rng",
        "_multicast",
        "_requested_this_round",
        "rounds",
        "blocks_obtained",
    )

    def __init__(
        self,
        host,
        view: OrganizationView,
        fin: int,
        t_pull: float,
        digest_window: int,
        deliver,
        multicast=None,
    ) -> None:
        """
        Args:
            host: the gossip host (peer adapter).
            view: membership view.
            fin: number of peers contacted per pull round.
            t_pull: pull period in seconds.
            digest_window: number of recent blocks covered by a digest.
            deliver: callable ``(block, via) -> bool`` handing received
                blocks to the ledger layer.
            multicast: the host's ``multicast``, when the caller has it
                bound already (the gossip module binds it once per peer).
        """
        self.host = host
        self.view = view
        self.fin = fin
        self.t_pull = t_pull
        self.digest_window = digest_window
        self._deliver = deliver
        self._rng = None  # bound by first_draw
        self._multicast = multicast or host.multicast
        # Blocks already requested in the current round, so the initiator
        # does not fetch the same block from several advertisers. A round
        # starts with none: the set is made at its first request.
        self._requested_this_round: Optional[Set[int]] = None
        self.rounds = 0
        self.blocks_obtained = 0

    def start(self) -> None:
        """Arm the periodic pull with a random phase (unsynchronized
        clocks: peers' pull rounds are uniformly staggered)."""
        phase = (self._rng or first_draw(self)).uniform(0.0, self.t_pull)
        self.host.every(self.t_pull, self._round, initial_delay=phase)

    def _round(self) -> None:
        self.rounds += 1
        self._requested_this_round = None
        targets = self.view.sample_org(self._rng or first_draw(self), self.fin)
        if targets:
            # Stateless request: one shared instance, one multicast event.
            self._multicast(targets, PullDigestRequest())

    # ----- responder side ---------------------------------------------

    def on_digest_request(self, src: str, message: PullDigestRequest) -> None:
        numbers = self.host.known_block_numbers(self.digest_window)
        self.host.send(src, PullDigestResponse(numbers))

    def on_block_request(self, src: str, message: PullBlockRequest) -> None:
        blocks: List[Block] = []
        for number in message.block_numbers:
            block = self.host.get_block(number)
            if block is not None:
                blocks.append(block)
        if blocks:
            self.host.send(src, PullBlockResponse(blocks))

    # ----- initiator side ----------------------------------------------

    def on_digest_response(self, src: str, message: PullDigestResponse) -> None:
        host = self.host
        height = host.ledger_height
        requested = self._requested_this_round or ()
        # Cheapest test first: most advertised numbers are already committed.
        missing = [
            number
            for number in message.block_numbers
            if number >= height
            and number not in requested
            and host.get_block(number) is None
        ]
        if not missing:
            return
        if self._requested_this_round is None:
            self._requested_this_round = set(missing)
        else:
            self._requested_this_round.update(missing)
        self.host.send(src, PullBlockRequest(sorted(missing)))

    def on_block_response(self, src: str, message: PullBlockResponse) -> None:
        for block in message.blocks:
            if self._deliver(block, via="pull"):
                self.blocks_obtained += 1
