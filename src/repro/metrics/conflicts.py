"""Conflict accounting for the consistency experiments (Table II).

Validation-time conflicts are MVCC read-set failures detected when peers
validate a block. Because validation is deterministic over the totally
ordered chain, every peer reaches the same verdict for every transaction;
the tracker therefore counts each transaction once, at the first peer that
validates its block. Proposal-time conflicts (endorsement digest
mismatches) are counted at the clients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.fabric.validation import BlockValidationResult
from repro.ledger.transaction import ValidationCode


@dataclass
class ConflictTracker:
    """Aggregates validation outcomes across the network."""

    valid_transactions: int = 0
    invalidated_transactions: int = 0
    proposal_time_conflicts: int = 0
    by_code: Counter = field(default_factory=Counter)
    _seen_blocks: Set[int] = field(default_factory=set)
    per_block_invalid: Dict[int, int] = field(default_factory=dict)
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
        self.per_block_invalid[result.block_number] = result.invalid_count
        for code, count in result.counts_by_code().items():
            self.by_code[code] += count

    def record_proposal_conflict(self, client: str) -> None:
        self.proposal_time_conflicts += 1

    @property
    def total_ordered_transactions(self) -> int:
        return self.valid_transactions + self.invalidated_transactions

    @property
    def mvcc_conflicts(self) -> int:
        return self.by_code.get(ValidationCode.MVCC_READ_CONFLICT, 0)

    def invalidation_rate(self) -> float:
        total = self.total_ordered_transactions
        return self.invalidated_transactions / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "ordered": float(self.total_ordered_transactions),
            "valid": float(self.valid_transactions),
            "invalidated": float(self.invalidated_transactions),
            "mvcc_conflicts": float(self.mvcc_conflicts),
            "proposal_time_conflicts": float(self.proposal_time_conflicts),
            "invalidation_rate": self.invalidation_rate(),
        }
