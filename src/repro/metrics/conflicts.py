"""Conflict accounting for the consistency experiments (Table II).

Validation-time conflicts are MVCC read-set failures detected when peers
validate a block. Because validation is deterministic over the totally
ordered chain, every peer reaches the same verdict for every transaction;
the tracker therefore counts each transaction once, at the first peer that
validates its block. Proposal-time conflicts (endorsement digest
mismatches) are counted by each client (``ClientStats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from repro.fabric.validation import BlockValidationResult


@dataclass
class ConflictTracker:
    """Aggregates validation outcomes across the network."""

    valid_transactions: int = 0
    invalidated_transactions: int = 0
    _seen_blocks: Set[int] = field(default_factory=set)
    # How each (peer, block) verdict was reached: by running the checks, or
    # by replaying the block's memo. A run whose peers share their blocks
    # shows one full validation per block.
    full_validations: int = 0
    replayed_validations: int = 0

    def record_block_validation(self, peer: str, result: BlockValidationResult) -> None:
        """Record a block's outcomes; duplicate blocks (other peers
        validating the same block) only count as a validation."""
        if result.replayed:
            self.replayed_validations += 1
        else:
            self.full_validations += 1
        if result.block_number in self._seen_blocks:
            return
        self._seen_blocks.add(result.block_number)
        self.valid_transactions += result.valid_count
        self.invalidated_transactions += result.invalid_count
