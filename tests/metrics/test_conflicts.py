"""Unit tests for conflict accounting."""

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
    assert tracker.mvcc_conflicts == 1
    assert tracker.total_ordered_transactions == 2


def test_each_block_counted_once_across_peers():
    tracker = ConflictTracker()
    outcome = result(0, [ValidationCode.VALID])
    tracker.record_block_validation("p0", outcome)
    tracker.record_block_validation("p1", outcome)  # same block at another peer
    assert tracker.total_ordered_transactions == 1


def test_validations_counted_by_how_the_verdict_was_reached():
    tracker = ConflictTracker()
    tracker.record_block_validation("p0", result(0, [ValidationCode.VALID]))
    replay = BlockValidationResult(0, [ValidationCode.VALID], replayed=True)
    tracker.record_block_validation("p1", replay)
    tracker.record_block_validation("p2", replay)
    assert (tracker.full_validations, tracker.replayed_validations) == (1, 2)
    assert tracker.total_ordered_transactions == 1


def test_distinct_blocks_accumulate():
    tracker = ConflictTracker()
    tracker.record_block_validation("p0", result(0, [ValidationCode.VALID]))
    tracker.record_block_validation("p0", result(1, [ValidationCode.MVCC_READ_CONFLICT]))
    assert tracker.per_block_invalid == {0: 0, 1: 1}


def test_invalidation_rate():
    tracker = ConflictTracker()
    assert tracker.invalidation_rate() == 0.0
    tracker.record_block_validation(
        "p0", result(0, [ValidationCode.VALID, ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT])
    )
    assert tracker.invalidation_rate() == 1 / 3


def test_proposal_conflicts_counted_separately():
    tracker = ConflictTracker()
    tracker.record_proposal_conflict("client-0")
    tracker.record_proposal_conflict("client-0")
    assert tracker.proposal_time_conflicts == 2
    assert tracker.total_ordered_transactions == 0


def test_by_code_breakdown():
    tracker = ConflictTracker()
    tracker.record_block_validation(
        "p0",
        result(0, [ValidationCode.VALID, ValidationCode.ENDORSEMENT_POLICY_FAILURE]),
    )
    assert tracker.by_code[ValidationCode.ENDORSEMENT_POLICY_FAILURE] == 1
    assert tracker.mvcc_conflicts == 0


def test_summary_dict():
    tracker = ConflictTracker()
    tracker.record_block_validation(
        "p0", result(0, [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT])
    )
    summary = tracker.summary()
    assert summary["ordered"] == 2.0
    assert summary["invalidated"] == 1.0
    assert summary["invalidation_rate"] == 0.5
