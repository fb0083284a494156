"""Unit tests for block validation (policy + MVCC, earliest-writer-wins)."""

import copy
import dataclasses
import pickle

import pytest

from repro.crypto.identity import MembershipServiceProvider
from repro.fabric.chaincode import CounterIncrementChaincode
from repro.fabric.endorsement import EndorsementPolicy
from repro.fabric.validation import validate_block, validate_transaction
from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
from repro.ledger.kvstore import KeyValueStore, Version
from repro.ledger.transaction import Endorsement, TransactionProposal, ValidationCode

MSP = MembershipServiceProvider()
ENDORSER = MSP.enroll("endorser-0", "org0", "peer")
POLICY = EndorsementPolicy.any_single()


def endorsed_proposal(store, key="c1", tx_id="t"):
    """A counter increment simulated over ``store`` and endorsed."""
    rwset = CounterIncrementChaincode().simulate(store, (key,))
    return TransactionProposal(
        tx_id=tx_id, client="c", chaincode_id="counter-increment", args=(key,),
        rwset=rwset, endorsements=[Endorsement.create(ENDORSER, rwset)],
    )


def test_valid_transaction():
    store = KeyValueStore()
    proposal = endorsed_proposal(store)
    assert validate_transaction(proposal, store, POLICY) is ValidationCode.VALID


def test_missing_endorsements_bad_proposal():
    store = KeyValueStore()
    proposal = endorsed_proposal(store)
    proposal.endorsements.clear()
    assert validate_transaction(proposal, store, POLICY) is ValidationCode.BAD_PROPOSAL


def test_policy_failure():
    store = KeyValueStore()
    proposal = endorsed_proposal(store)
    strict = EndorsementPolicy.specific(["someone-else"])
    assert validate_transaction(proposal, store, strict) is ValidationCode.ENDORSEMENT_POLICY_FAILURE


def test_mvcc_conflict_on_stale_read():
    store = KeyValueStore()
    proposal = endorsed_proposal(store)  # simulated over empty state
    store.put("c1", 5, Version(0, 0))  # state moved on
    assert validate_transaction(proposal, store, POLICY) is ValidationCode.MVCC_READ_CONFLICT


def test_block_validation_applies_valid_writes():
    store = KeyValueStore()
    proposal = endorsed_proposal(store, tx_id="t0")
    block = Block.create(0, GENESIS_PREVIOUS_HASH, [proposal])
    result = validate_block(block, store, POLICY)
    assert result.valid_count == 1
    assert store.get_value("c1") == 1
    assert store.get_version("c1") == Version(0, 0)


def test_earliest_writer_wins_within_block():
    """Two increments over the same base value in one block: the first is
    VALID, the second fails MVCC (paper §II-C)."""
    store = KeyValueStore()
    first = endorsed_proposal(store, tx_id="t0")
    second = endorsed_proposal(store, tx_id="t1")  # same snapshot
    block = Block.create(0, GENESIS_PREVIOUS_HASH, [first, second])
    result = validate_block(block, store, POLICY)
    assert result.codes == [ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT]
    assert store.get_value("c1") == 1  # second increment lost


def test_conflict_across_blocks():
    store = KeyValueStore()
    stale = endorsed_proposal(store, tx_id="t0")
    block0 = Block.create(0, GENESIS_PREVIOUS_HASH, [stale])
    validate_block(block0, store, POLICY)
    # A proposal endorsed before block0 committed, ordered in block1.
    stale_again = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="counter-increment", args=("c1",),
        rwset=stale.rwset, endorsements=[Endorsement.create(ENDORSER, stale.rwset)],
    )
    block1 = Block.create(1, block0.block_hash, [stale_again])
    result = validate_block(block1, store, POLICY)
    assert result.codes == [ValidationCode.MVCC_READ_CONFLICT]


def test_sequential_increments_all_valid_when_fresh():
    store = KeyValueStore()
    previous = GENESIS_PREVIOUS_HASH
    for number in range(3):
        proposal = endorsed_proposal(store, tx_id=f"t{number}")
        block = Block.create(number, previous, [proposal])
        result = validate_block(block, store, POLICY)
        assert result.valid_count == 1
        previous = block.block_hash
    assert store.get_value("c1") == 3


def test_version_assigned_is_block_and_tx_index():
    store = KeyValueStore()
    proposals = [endorsed_proposal(store, key=f"k{i}", tx_id=f"t{i}") for i in range(3)]
    block = Block.create(7, GENESIS_PREVIOUS_HASH, proposals)
    validate_block(block, store, POLICY)
    assert store.get_version("k2") == Version(7, 2)


def test_invalid_transactions_do_not_write():
    store = KeyValueStore()
    proposal = endorsed_proposal(store)
    store.put("c1", 50, Version(0, 0))
    block = Block.create(1, GENESIS_PREVIOUS_HASH, [proposal])
    validate_block(block, store, POLICY)
    assert store.get_value("c1") == 50  # stale write rejected


def test_result_counters_and_breakdown():
    store = KeyValueStore()
    good = endorsed_proposal(store, tx_id="t0")
    bad = endorsed_proposal(store, tx_id="t1")
    result = validate_block(Block.create(0, GENESIS_PREVIOUS_HASH, [good, bad]), store, POLICY)
    assert result.valid_count == 1
    assert result.invalid_count == 1
    counts = result.counts_by_code()
    assert counts[ValidationCode.VALID] == 1
    assert counts[ValidationCode.MVCC_READ_CONFLICT] == 1


# ----- validate once, replay everywhere (the memo on the block) ---------------

OUTSIDER = MSP.enroll("outsider-0", "org9", "peer")
STRICT = EndorsementPolicy.specific(["endorser-0"])


def build_chain(spec, policy=STRICT):
    """A hash-linked chain of counter increments with conflicts built in.

    ``spec[b]`` lists block b's transactions as ``(key, lag, endorsed)``:
    the increment of ``k<key>`` is simulated over the state ``lag`` blocks
    behind the tip (so it may read stale versions, within and across
    blocks) and endorsed by the policy's endorser (``"ok"``), by nobody
    (``"none"``) or by a peer the policy does not allow (``"outsider"``).
    Returns the blocks, memo-free.
    """
    chaincode = CounterIncrementChaincode()
    tip = KeyValueStore()
    history = [copy.deepcopy(tip)]
    blocks = []
    previous = GENESIS_PREVIOUS_HASH
    for number, transactions in enumerate(spec):
        proposals = []
        for index, (key, lag, endorsed) in enumerate(transactions):
            rwset = chaincode.simulate(history[max(0, len(history) - 1 - lag)], (f"k{key}",))
            signer = {"ok": ENDORSER, "outsider": OUTSIDER}.get(endorsed)
            proposals.append(
                TransactionProposal(
                    tx_id=f"t{number}.{index}", client="c", chaincode_id="counter-increment",
                    args=(f"k{key}",), rwset=rwset,
                    endorsements=[Endorsement.create(signer, rwset)] if signer else [],
                )
            )
        block = Block.create(number, previous, proposals)
        validate_block(block, tip, policy)
        block._validation_memo = None
        history.append(copy.deepcopy(tip))
        blocks.append(block)
        previous = block.block_hash
    return blocks


def contents(store):
    return [(key, entry.value, entry.version) for key, entry in store.items()]


def validate_independently(blocks, policy=STRICT):
    """One fresh store through ``blocks`` with every memo cleared first:
    the per-transaction checks, as every peer ran them before the memo."""
    store = KeyValueStore()
    codes = []
    for block in blocks:
        block._validation_memo = None
        codes.append(validate_block(block, store, policy).codes)
        block._validation_memo = None
    return codes, store


CONFLICT_SPEC = [
    [(0, 0, "ok"), (0, 0, "ok"), (1, 0, "ok")],          # intra-block conflict on k0
    [(0, 1, "ok"), (1, 0, "none"), (2, 0, "outsider")],  # stale read, bad proposal, policy failure
    [(0, 0, "ok"), (1, 2, "ok"), (2, 0, "ok"), (2, 0, "ok")],
]


def test_conflict_spec_covers_every_code():
    codes, _ = validate_independently(build_chain(CONFLICT_SPEC))
    assert {code for block in codes for code in block} == set(ValidationCode)


def test_later_stores_replay_the_first_validation():
    blocks = build_chain(CONFLICT_SPEC)
    expected_codes, expected = validate_independently(blocks)
    stores = [KeyValueStore() for _ in range(4)]
    replayed = []
    for block, codes in zip(blocks, expected_codes):
        for store in stores:
            result = validate_block(block, store, STRICT)
            assert result.codes == codes
            replayed.append(result.replayed)
    assert replayed == [False, True, True, True] * len(blocks)
    for store in stores:
        assert contents(store) == contents(expected)
        assert store.writes_applied == expected.writes_applied
        assert store.state_tag == stores[0].state_tag


def test_staggered_heights_replay_too():
    """A store far behind replays memos left long ago, block by block."""
    blocks = build_chain(CONFLICT_SPEC)
    _, expected = validate_independently(blocks)
    ahead, behind = KeyValueStore(), KeyValueStore()
    for block in blocks:
        assert not validate_block(block, ahead, STRICT).replayed
    for block in blocks:
        assert validate_block(block, behind, STRICT).replayed
    assert contents(behind) == contents(ahead) == contents(expected)


def test_replayed_entries_are_the_shared_frozen_instances():
    blocks = build_chain(CONFLICT_SPEC)
    first, second = KeyValueStore(), KeyValueStore()
    for block in blocks:
        validate_block(block, first, STRICT)
        validate_block(block, second, STRICT)
    assert len(first) > 0
    for key, entry in first.items():
        assert second.get(key) is entry
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.value = 99
    # A later write at one store replaces its entry, not the shared one.
    first.put("k0", 1000, Version(9, 0))
    assert second.get_value("k0") != 1000


def test_store_written_out_of_band_takes_the_full_path():
    blocks = build_chain(CONFLICT_SPEC)
    clean, touched, late = KeyValueStore(), KeyValueStore(), KeyValueStore()
    for block in blocks[:2]:
        for store in (clean, touched, late):
            validate_block(block, store, STRICT)
    touched.put("k0", 41, Version(0, 7))  # block 2 reads k0 first
    assert touched.state_tag is None
    result = validate_block(blocks[2], touched, STRICT)
    assert not result.replayed
    assert result.codes[0] is ValidationCode.MVCC_READ_CONFLICT
    assert touched.get_value("k0") == 41
    # It stays untagged and leaves no memo for a store it does not resemble.
    assert touched.state_tag is None
    ours = validate_block(blocks[2], clean, STRICT)
    assert not ours.replayed and ours.codes[0] is ValidationCode.VALID
    assert validate_block(blocks[2], late, STRICT).replayed
    assert contents(late) == contents(clean)


def test_different_policy_takes_the_full_path():
    blocks = build_chain(CONFLICT_SPEC)
    validate_block(blocks[1], KeyValueStore(), STRICT)
    lenient = validate_block(blocks[1], KeyValueStore(), POLICY)
    assert not lenient.replayed
    # any_single() accepts the outsider's endorsement that STRICT refused.
    assert lenient.codes[2] is ValidationCode.VALID
    # An equal policy built separately is the same policy.
    validate_block(blocks[0], KeyValueStore(), STRICT)
    assert validate_block(blocks[0], KeyValueStore(), EndorsementPolicy.specific(["endorser-0"])).replayed


def test_transaction_appended_after_validation_takes_the_full_path():
    blocks = build_chain(CONFLICT_SPEC)
    first, second = KeyValueStore(), KeyValueStore()
    before = validate_block(blocks[0], first, STRICT)
    blocks[0].transactions.append(endorsed_proposal(KeyValueStore(), key="late", tx_id="late"))
    after = validate_block(blocks[0], second, STRICT)
    assert not after.replayed
    assert after.codes == before.codes + [ValidationCode.VALID]
    assert second.get_value("late") == 1 and "late" not in first
    assert second.state_tag != first.state_tag


def test_pickled_block_and_pickled_store_take_the_full_path():
    blocks = build_chain(CONFLICT_SPEC)
    expected_codes, expected = validate_independently(blocks)
    original = KeyValueStore()
    validate_block(blocks[0], original, STRICT)
    validate_block(blocks[1], original, STRICT)

    block_copy = pickle.loads(pickle.dumps(blocks[1]))
    assert block_copy._validation_memo is None
    store = KeyValueStore()
    assert validate_block(blocks[0], store, STRICT).replayed
    result = validate_block(block_copy, store, STRICT)
    assert not result.replayed and result.codes == expected_codes[1]

    store_copy = pickle.loads(pickle.dumps(original))
    assert contents(store_copy) == contents(original)
    assert store_copy.state_tag is None
    result = validate_block(blocks[2], store_copy, STRICT)
    assert not result.replayed and result.codes == expected_codes[2]
    assert contents(store_copy) == contents(expected)
    # An empty store's tag means the same in every process.
    assert pickle.loads(pickle.dumps(KeyValueStore())).state_tag == ""
