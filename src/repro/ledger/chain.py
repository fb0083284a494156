"""Per-peer blockchain store with strictly in-order commit.

Peers must append blocks in sequence: block ``k+1`` both references block
``k`` by hash and reads state written by it, so a peer holding blocks
``k+1, k+2`` but missing ``k`` cannot commit any of them. The chain store
therefore tells *received* blocks (any order, e.g. via gossip) from the
*committed* prefix, exposing the next committable block to the validation
pipeline. This head-of-line blocking is what turns one slow dissemination
into a multi-block state lag — the effect behind the paper's Table II.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH


class ChainError(RuntimeError):
    """Raised on invalid chain operations (bad linkage, gaps, replays)."""


class Blockchain:
    """Received-block buffer + committed chain of one peer.

    Every block the peer holds sits in one list indexed by block number,
    ``None`` for a number it lacks; the committed prefix is the numbers
    ``[0, height)``, anything held above it is buffered. Block numbers are
    dense from 0 (they count the orderer's cuts), so the list is a slot
    per block, not a dict entry: an arrival past the end extends it in
    place, with holes for the numbers it skipped. "Do I hold block k" —
    asked once per received digest — is :meth:`get_any`: a bounds test
    and an index.
    """

    __slots__ = ("_blocks", "_held", "_height")

    def __init__(self) -> None:
        self._blocks: List[Optional[Block]] = []
        self._held = 0  # blocks held, committed or buffered
        self._height = 0

    @property
    def height(self) -> int:
        """Number of committed blocks (the Fabric ledger height)."""
        return self._height

    @property
    def next_commit_number(self) -> int:
        return self._height

    def tip_hash(self) -> str:
        """Hash of the last committed block; genesis constant when empty."""
        if not self._height:
            return GENESIS_PREVIOUS_HASH
        return self._blocks[self._height - 1].block_hash

    @property
    def by_number(self) -> List[Optional[Block]]:
        """The held blocks by number, ``None`` for a gap: the live list
        :meth:`get_any` indexes, for a reader that cannot afford the call
        (it is extended in place, never replaced). Never write to it."""
        return self._blocks

    def get_any(self, number: int) -> Optional[Block]:
        """Committed or buffered block, for serving gossip requests; None
        when the peer does not hold it."""
        blocks = self._blocks
        return blocks[number] if 0 <= number < len(blocks) else None

    def has_block(self, number: int) -> bool:
        """True if the block is committed or buffered (gossip dedup check)."""
        return self.get_any(number) is not None

    def get_committed(self, number: int) -> Optional[Block]:
        return self._blocks[number] if 0 <= number < self._height else None

    def receive(self, block: Block) -> bool:
        """Buffer a block received from the network.

        Returns True if the block is new, False for duplicates. Blocks may
        arrive in any order; commit order is enforced by :meth:`commit`.
        """
        number = block.number
        blocks = self._blocks
        if number < len(blocks) and blocks[number] is not None:
            return False
        self._hold(number, block)
        return True

    def _hold(self, number: int, block: Block) -> None:
        blocks = self._blocks
        if number >= len(blocks):
            blocks.extend([None] * (number + 1 - len(blocks)))
        if blocks[number] is None:
            blocks[number] = block
            self._held += 1

    def peek_ready(self) -> Optional[Block]:
        """The next in-sequence block awaiting commit, if buffered.

        The block stays in the buffer until :meth:`commit` removes it, so
        it keeps being advertised and served to other peers while its
        validation is in flight.
        """
        return self.get_any(self._height)

    def check_next(self, block: Block) -> None:
        """Raise :class:`ChainError` unless ``block`` may be committed next.

        Enforces sequence numbers and hash linkage, and verifies the data
        hash — the integrity checks any Fabric peer performs, before the
        block's writes reach its world state.
        """
        expected = self._height
        if block.number != expected:
            raise ChainError(f"commit out of order: got #{block.number}, expected #{expected}")
        if block.header.previous_hash != self.tip_hash():
            raise ChainError(f"block #{block.number} does not link to chain tip")
        if not block.verify_data_hash():
            raise ChainError(f"block #{block.number} data hash mismatch")

    def commit(self, block: Block) -> None:
        """Append ``block`` to the committed chain once :meth:`check_next`
        passes it; a refused block raises and changes nothing."""
        self.check_next(block)
        self._hold(block.number, block)
        self._height += 1

    def committed_blocks(self) -> List[Block]:
        return self._blocks[: self._height]

    def missing_ranges(self, up_to_height: int) -> List[int]:
        """Block numbers below ``up_to_height`` that this peer lacks.

        Used by the recovery component: a peer that observes another peer's
        higher ledger height requests the consecutive missing blocks.
        """
        blocks = self._blocks
        return [
            n for n in range(self._height, up_to_height) if n >= len(blocks) or blocks[n] is None
        ]

    def pending_count(self) -> int:
        return self._held - self._height

    def max_known_number(self) -> int:
        """Highest block number held (committed or buffered); -1 if none."""
        return len(self._blocks) - 1

    def known_numbers(self, window: int) -> List[int]:
        """Block numbers held within ``window`` of the highest known one.

        This is the content of a pull digest response: Fabric's message
        store only advertises recent blocks. The committed part of the
        window is a range; only the buffered tail is probed.
        """
        top = len(self._blocks) - 1
        low = max(0, top - window + 1)
        height = self._height
        blocks = self._blocks
        return [*range(low, min(height, top + 1))] + [
            n for n in range(max(low, height), top + 1) if blocks[n] is not None
        ]

    def verify_committed_chain(self) -> bool:
        """Full-chain integrity scan (tests / audits)."""
        previous = GENESIS_PREVIOUS_HASH
        for index, block in enumerate(self.committed_blocks()):
            if block.number != index or block.header.previous_hash != previous:
                return False
            if not block.verify_data_hash():
                return False
            previous = block.block_hash
        return True
