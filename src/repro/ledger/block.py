"""Blocks and headers with SHA-256 chain linkage.

Block wire size follows the paper's workload: 50 transactions of ~3.2 KB
each give the ~160 KB blocks whose dissemination dominates bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

from repro.crypto.hashing import hash_fields, hash_many
from repro.ledger.transaction import TransactionProposal

GENESIS_PREVIOUS_HASH = "0" * 64
BLOCK_HEADER_SIZE_BYTES = 512  # number, hashes, orderer signature, metadata


@dataclass(frozen=True)
class BlockHeader:
    """Chained block header: number, previous hash, data hash."""

    number: int
    previous_hash: str
    data_hash: str

    def compute_hash(self) -> str:
        """The hash by which the *next* block references this one."""
        return self._hash

    @cached_property
    def _hash(self) -> str:
        # cached_property writes to __dict__ directly, which is compatible
        # with frozen dataclasses; headers are immutable so this is safe.
        return hash_fields(self.number, self.previous_hash, self.data_hash)


@dataclass
class Block:
    """An ordered block of endorsed transaction proposals."""

    header: BlockHeader
    transactions: List[TransactionProposal] = field(default_factory=list)
    cut_at: float = 0.0  # simulated time the orderer cut the block
    _size_cache: int = field(default=-1, repr=False, compare=False)
    # Cached (verdict, tx_count) of verify_data_hash: the same block object
    # is committed by every peer of the simulation, so the hash is checked
    # once, not n times. The count keys the cache so structural tampering
    # (adding/removing transactions) still invalidates it; only a same-count
    # in-place mutation after a successful verification goes unnoticed.
    _hash_ok_cache: object = field(default=None, repr=False, compare=False)
    # What validating this block did to a store in a given state, left by
    # the first peer to validate it and replayed by the others; owned by
    # repro.fabric.validation.validate_block, opaque here.
    _validation_memo: object = field(default=None, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        number: int,
        previous_hash: str,
        transactions: List[TransactionProposal],
        cut_at: float = 0.0,
    ) -> "Block":
        data_hash = hash_many(tx.rwset.digest() for tx in transactions)
        header = BlockHeader(number=number, previous_hash=previous_hash, data_hash=data_hash)
        return cls(header=header, transactions=list(transactions), cut_at=cut_at)

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def block_hash(self) -> str:
        return self.header.compute_hash()

    @property
    def tx_count(self) -> int:
        return len(self.transactions)

    def size_bytes(self) -> int:
        """Wire size: header plus per-transaction payloads.

        Cached: a block is immutable once cut, and its size is queried on
        every one of its (potentially hundreds of) transmissions.
        """
        if self._size_cache < 0:
            self._size_cache = BLOCK_HEADER_SIZE_BYTES + sum(
                tx.size_bytes for tx in self.transactions
            )
        return self._size_cache

    def verify_data_hash(self) -> bool:
        """Recompute the data hash over transactions (tamper check).

        The verdict is cached per transaction count: blocks are immutable
        once cut, and the same block object is committed by every peer of
        the simulation.
        """
        cached = self._hash_ok_cache
        count = len(self.transactions)
        if cached is not None and cached[1] == count:
            return cached[0]
        verdict = self.header.data_hash == hash_many(
            tx.rwset.digest() for tx in self.transactions
        )
        self._hash_ok_cache = (verdict, count)
        return verdict

    def __getstate__(self) -> dict:
        # The memo belongs to the run that validated this instance; a copy
        # (another process, a later unpickle) validates afresh.
        state = self.__dict__.copy()
        state["_validation_memo"] = None
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Block #{self.number} txs={self.tx_count} size={self.size_bytes()}B>"
