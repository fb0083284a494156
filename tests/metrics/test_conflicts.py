"""Unit tests for conflict accounting."""

import pytest

from repro.fabric.validation import BlockValidationResult
from repro.ledger.transaction import ValidationCode
from repro.metrics.conflicts import ConflictTracker


def result(block_number, codes):
    return BlockValidationResult(block_number=block_number, codes=list(codes))


def test_counts_valid_and_invalid():
    tracker = ConflictTracker()
    tracker.record_block_validation(
        "p0", result(0, [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT])
    )
    assert tracker.valid_transactions == 1
    assert tracker.invalidated_transactions == 1


def test_each_block_counted_once_across_peers():
    tracker = ConflictTracker()
    outcome = result(0, [ValidationCode.VALID])
    tracker.record_block_validation("p0", outcome)
    tracker.record_block_validation("p1", outcome)  # same block at another peer
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (1, 0)


def test_validations_counted_by_how_the_verdict_was_reached():
    tracker = ConflictTracker()
    tracker.record_block_validation("p0", result(0, [ValidationCode.VALID]))
    replay = BlockValidationResult(0, [ValidationCode.VALID], replayed=True)
    tracker.record_block_validation("p1", replay)
    tracker.record_block_validation("p2", replay)
    assert (tracker.full_validations, tracker.replayed_validations) == (1, 2)
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (1, 0)


def test_distinct_blocks_accumulate():
    tracker = ConflictTracker()
    tracker.record_block_validation("p0", result(0, [ValidationCode.VALID]))
    tracker.record_block_validation("p0", result(1, [ValidationCode.MVCC_READ_CONFLICT]))
    tracker.record_block_validation(
        "p0", result(2, [ValidationCode.VALID, ValidationCode.ENDORSEMENT_POLICY_FAILURE])
    )
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (2, 2)


def test_an_empty_tracker_reads_zero():
    tracker = ConflictTracker()
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (0, 0)
    assert (tracker.full_validations, tracker.replayed_validations) == (0, 0)


@pytest.mark.parametrize(
    "code", [code for code in ValidationCode if not code.is_valid], ids=lambda code: code.name
)
def test_every_invalid_code_counts_as_invalidated(code):
    tracker = ConflictTracker()
    tracker.record_block_validation("p0", result(0, [ValidationCode.VALID, code, code]))
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (1, 2)


def test_a_replayed_first_sighting_still_counts_its_block():
    """A block first seen as a replay (its memo came from another store)
    still counts its transactions once."""
    tracker = ConflictTracker()
    replay = BlockValidationResult(
        block_number=4, codes=[ValidationCode.MVCC_READ_CONFLICT], replayed=True
    )
    tracker.record_block_validation("p0", replay)
    tracker.record_block_validation("p1", replay)
    assert (tracker.valid_transactions, tracker.invalidated_transactions) == (0, 1)
    assert (tracker.full_validations, tracker.replayed_validations) == (0, 2)
