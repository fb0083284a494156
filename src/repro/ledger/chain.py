"""Per-peer blockchain store with strictly in-order commit.

Peers must append blocks in sequence: block ``k+1`` both references block
``k`` by hash and reads state written by it, so a peer holding blocks
``k+1, k+2`` but missing ``k`` cannot commit any of them. The chain store
therefore separates *received* blocks (any order, e.g. via gossip) from the
*committed* prefix, exposing the next committable blocks to the validation
pipeline. This head-of-line blocking is what turns one slow dissemination
into a multi-block state lag — the effect behind the paper's Table II.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH


class ChainError(RuntimeError):
    """Raised on invalid chain operations (bad linkage, gaps, replays)."""


class Blockchain:
    """Received-block buffer + committed chain of one peer."""

    def __init__(self) -> None:
        self._committed: List[Block] = []
        self._pending: Dict[int, Block] = {}

    @property
    def height(self) -> int:
        """Number of committed blocks (the Fabric ledger height)."""
        return len(self._committed)

    @property
    def next_commit_number(self) -> int:
        return len(self._committed)

    def tip_hash(self) -> str:
        """Hash of the last committed block; genesis constant when empty."""
        if not self._committed:
            return GENESIS_PREVIOUS_HASH
        return self._committed[-1].block_hash

    def has_block(self, number: int) -> bool:
        """True if the block is committed or buffered (gossip dedup check)."""
        return number < len(self._committed) or number in self._pending

    def get_committed(self, number: int) -> Optional[Block]:
        if 0 <= number < len(self._committed):
            return self._committed[number]
        return None

    def get_any(self, number: int) -> Optional[Block]:
        """Committed or buffered block, for serving gossip requests.

        Called once per received digest — the committed-range check is
        inlined rather than delegated to :meth:`get_committed`.
        """
        committed = self._committed
        if 0 <= number < len(committed):
            return committed[number]
        return self._pending.get(number)

    def receive(self, block: Block) -> bool:
        """Buffer a block received from the network.

        Returns True if the block is new, False for duplicates. Blocks may
        arrive in any order; commit order is enforced by :meth:`pop_ready`.
        """
        if self.has_block(block.number):
            return False
        self._pending[block.number] = block
        return True

    def peek_ready(self) -> Optional[Block]:
        """The next in-sequence block awaiting commit, if buffered.

        The block stays in the buffer until :meth:`commit` removes it, so
        it keeps being advertised and served to other peers while its
        validation is in flight.
        """
        return self._pending.get(len(self._committed))

    def check_next(self, block: Block) -> None:
        """Raise :class:`ChainError` unless ``block`` may be committed next.

        Enforces sequence numbers and hash linkage, and verifies the data
        hash — the integrity checks any Fabric peer performs, before the
        block's writes reach its world state.
        """
        expected = len(self._committed)
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
        self._pending.pop(block.number, None)
        self._committed.append(block)

    def committed_blocks(self) -> List[Block]:
        return list(self._committed)

    def missing_ranges(self, up_to_height: int) -> List[int]:
        """Block numbers below ``up_to_height`` that this peer lacks.

        Used by the recovery component: a peer that observes another peer's
        higher ledger height requests the consecutive missing blocks.
        """
        return [
            number
            for number in range(len(self._committed), up_to_height)
            if number not in self._pending
        ]

    def pending_count(self) -> int:
        return len(self._pending)

    def max_known_number(self) -> int:
        """Highest block number held (committed or buffered); -1 if none."""
        highest = len(self._committed) - 1
        if self._pending:
            highest = max(highest, max(self._pending))
        return highest

    def known_numbers(self, window: int) -> List[int]:
        """Block numbers held within ``window`` of the highest known one.

        This is the content of a pull digest response: Fabric's message
        store only advertises recent blocks.
        """
        top = self.max_known_number()
        if top < 0:
            return []
        low = max(0, top - window + 1)
        # The committed prefix is contiguous; only numbers above it need a
        # lookup, and there are none once the peer has caught up.
        height = len(self._committed)
        numbers = list(range(low, height))
        numbers.extend(n for n in range(max(low, height), top + 1) if n in self._pending)
        return numbers

    def verify_committed_chain(self) -> bool:
        """Full-chain integrity scan (tests / audits)."""
        previous = GENESIS_PREVIOUS_HASH
        for index, block in enumerate(self._committed):
            if block.number != index or block.header.previous_hash != previous:
                return False
            if not block.verify_data_hash():
                return False
            previous = block.block_hash
        return True
