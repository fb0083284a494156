"""Fabric's original infect-and-die push component.

When a peer receives a block for the first time *via the push path* (from
the ordering service or another peer's push), it becomes infected: the block
enters a small buffer which is flushed to ``fout`` random peers when full or
after the ``t_push`` timer (Fabric default: 10 ms) — then the peer "dies"
for that block and never pushes it again. Blocks obtained through pull or
recovery are NOT pushed onward (paper §III-A).

The buffer batching is faithful to Fabric: all blocks flushed together go to
the *same* ``fout`` targets, which is precisely the randomness bias the
paper later removes in the enhanced protocol.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.gossip.messages import BlockPush
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.simulation.random import first_draw


class InfectAndDiePush:
    """The buffered, infect-and-die push of Fabric v1.2.

    Args:
        host: the gossip host (peer adapter).
        view: membership view used for target sampling.
        fout: push fan-out.
        t_push: buffer flush delay; 0 pushes immediately without batching.
        buffer_max: flush early when the buffer reaches this many blocks.
        multicast: the host's ``multicast``, when the caller has it bound
            already (the gossip module binds it once per peer).
    """

    STREAM = "push-targets"

    __slots__ = (
        "host",
        "view",
        "fout",
        "t_push",
        "buffer_max",
        "_rng",
        "_multicast",
        "_buffer",
        "_flush_pending",
        "blocks_pushed",
    )

    def __init__(
        self,
        host,
        view: OrganizationView,
        fout: int,
        t_push: float,
        buffer_max: int = 10,
        multicast: Optional[Callable[[List[str], object], None]] = None,
    ) -> None:
        self.host = host
        self.view = view
        self.fout = fout
        self.t_push = t_push
        self.buffer_max = buffer_max
        self._rng = None  # bound by first_draw
        self._multicast = multicast or host.multicast
        self._buffer: List[Block] = []
        self._flush_pending = False
        self.blocks_pushed = 0

    def on_first_reception(self, block: Block) -> None:
        """Infect this peer with ``block``; schedules exactly one push."""
        if self.t_push <= 0:
            self._push([block])
            return
        self._buffer.append(block)
        if len(self._buffer) >= self.buffer_max:
            self._flush()
        elif not self._flush_pending:
            self._flush_pending = True
            self.host.after(self.t_push, self._on_timer)

    def _on_timer(self) -> None:
        if self._flush_pending:
            self._flush()

    def _flush(self) -> None:
        self._flush_pending = False
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self._push(batch)

    def _push(self, blocks: List[Block]) -> None:
        targets = self.view.sample_org(self._rng or first_draw(self), self.fout)
        multicast = self._multicast
        for block in blocks:
            # One shared BlockPush per block across the fanout (receivers
            # only read fields), multicast as a single pooled network event.
            multicast(targets, BlockPush(block, counter=0))
            self.blocks_pushed += 1
