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

from typing import Callable, Dict, List, Optional

from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH


class ChainError(RuntimeError):
    """Raised on invalid chain operations (bad linkage, gaps, replays)."""


class Blockchain:
    """Received-block buffer + committed chain of one peer.

    Every block the peer holds sits in one ``{number: block}`` dict; the
    committed prefix is the numbers ``[0, height)``, anything above it is
    buffered. "Do I hold block k" — asked once per received digest — is
    therefore the dict's own ``get``, with no Python frame.
    """

    __slots__ = ("_blocks", "_height", "_top", "get_any")

    # Committed or buffered block, for serving gossip requests; None when
    # the peer does not hold it. Bound to the block dict's ``get``.
    get_any: Callable[[int], Optional[Block]]

    def __init__(self) -> None:
        self._blocks: Dict[int, Block] = {}
        self._height = 0
        self._top = -1  # highest number held, committed or buffered
        self.get_any = self._blocks.get

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

    def has_block(self, number: int) -> bool:
        """True if the block is committed or buffered (gossip dedup check)."""
        return number in self._blocks

    def get_committed(self, number: int) -> Optional[Block]:
        return self._blocks[number] if 0 <= number < self._height else None

    def receive(self, block: Block) -> bool:
        """Buffer a block received from the network.

        Returns True if the block is new, False for duplicates. Blocks may
        arrive in any order; commit order is enforced by :meth:`commit`.
        """
        number = block.number
        if number in self._blocks:
            return False
        self._hold(number, block)
        return True

    def _hold(self, number: int, block: Block) -> None:
        self._blocks[number] = block
        if number > self._top:
            self._top = number

    def peek_ready(self) -> Optional[Block]:
        """The next in-sequence block awaiting commit, if buffered.

        The block stays in the buffer until :meth:`commit` removes it, so
        it keeps being advertised and served to other peers while its
        validation is in flight.
        """
        return self._blocks.get(self._height)

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
        """Append a validated block to the committed chain (checked by
        :meth:`check_next`)."""
        self.check_next(block)
        self._hold(block.number, block)
        self._height += 1

    def committed_blocks(self) -> List[Block]:
        return [self._blocks[number] for number in range(self._height)]

    def missing_ranges(self, up_to_height: int) -> List[int]:
        """Block numbers below ``up_to_height`` that this peer lacks.

        Used by the recovery component: a peer that observes another peer's
        higher ledger height requests the consecutive missing blocks.
        """
        return [n for n in range(self._height, up_to_height) if n not in self._blocks]

    def pending_count(self) -> int:
        return len(self._blocks) - self._height

    def max_known_number(self) -> int:
        """Highest block number held (committed or buffered); -1 if none."""
        return self._top

    def known_numbers(self, window: int) -> List[int]:
        """Block numbers held within ``window`` of the highest known one.

        This is the content of a pull digest response: Fabric's message
        store only advertises recent blocks.
        """
        top = self._top
        return [n for n in range(max(0, top - window + 1), top + 1) if n in self._blocks]

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
