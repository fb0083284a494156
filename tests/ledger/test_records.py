"""The per-transaction records: slotted or tuples, and whole after a copy.

Processes-mode shards pickle every block push, so a block, its proposals,
their endorsements and frozen read/write sets must come back from
``pickle`` and ``copy.deepcopy`` with the same digests.
"""

import copy
import pickle

import pytest

from repro.crypto.identity import Identity
from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
from repro.ledger.kvstore import NIL_VERSION, Version, VersionedValue
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import Endorsement, TransactionProposal

COPIES = pytest.mark.parametrize(
    "copied",
    [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)


def _endorsed(index):
    rwset = ReadWriteSet(
        reads=((f"k{index}", Version(index, 1)), ("absent", NIL_VERSION)),
        writes=((f"k{index}", index + 1),),
    )
    endorsement = Endorsement.create(Identity(f"peer-{index}", "org0", "peer"), rwset)
    return TransactionProposal(
        tx_id=f"tx-{index}", client="client-0", chaincode_id="cc", args=(f"k{index}",),
        rwset=rwset, endorsements=[endorsement], created_at=0.5 * index, size_bytes=100,
    )


@COPIES
def test_an_endorsement_and_a_frozen_rwset_copy_whole(copied):
    proposal = _endorsed(3)
    endorsement = copied(proposal.endorsements[0])
    assert (endorsement.endorser, endorsement.organization) == ("peer-3", "org0")
    assert endorsement.rwset_digest == proposal.rwset.digest()
    rwset = copied(proposal.rwset)
    assert rwset.reads == proposal.rwset.reads and rwset.writes == proposal.rwset.writes
    assert rwset.digest() == proposal.rwset.digest()


@COPIES
def test_a_proposal_copies_whole(copied):
    proposal = _endorsed(4)
    clone = copied(proposal)
    assert [getattr(clone, slot) for slot in ("tx_id", "client", "chaincode_id", "args")] == [
        "tx-4", "client-0", "cc", ("k4",)
    ]
    assert (clone.created_at, clone.size_bytes) == (2.0, 100)
    assert isinstance(clone.endorsements, tuple) and len(clone.endorsements) == 1
    assert clone.rwset.digest() == proposal.rwset.digest()
    assert clone.endorsements_consistent()


@COPIES
def test_a_block_of_endorsed_proposals_copies_whole(copied):
    block = Block.create(0, GENESIS_PREVIOUS_HASH, [_endorsed(index) for index in range(5)])
    clone = copied(block)  # before a verdict is cached on the original
    assert clone.header.data_hash == block.header.data_hash
    assert clone.verify_data_hash() and block.verify_data_hash()
    assert [tx.rwset.digest() for tx in clone.transactions] == [
        tx.rwset.digest() for tx in block.transactions
    ]
    assert clone.size_bytes() == block.size_bytes() == 512 + 5 * 100


def test_versions_keep_value_equality_hash_and_order():
    assert Version(2, 3) == Version(2, 3) and hash(Version(2, 3)) == hash(Version(2, 3))
    assert Version(2, 3) != Version(3, 2)
    assert NIL_VERSION == Version(-1, -1) and hash(NIL_VERSION) == hash(Version(-1, -1))
    assert sorted([Version(1, 0), NIL_VERSION, Version(0, 5), Version(0, 1)]) == [
        NIL_VERSION, Version(0, 1), Version(0, 5), Version(1, 0)
    ]
    assert len({Version(0, 0), Version(0, 0), NIL_VERSION}) == 2
    assert pickle.loads(pickle.dumps(NIL_VERSION)) == NIL_VERSION
    entry = VersionedValue(7, Version(1, 2))
    assert entry == VersionedValue(7, Version(1, 2)) and entry.version.tx_index == 2


def test_no_record_has_an_instance_dict():
    proposal = _endorsed(1)
    records = [
        proposal,
        proposal.rwset,
        proposal.endorsements[0],
        Version(0, 0),
        NIL_VERSION,
        VersionedValue(1, NIL_VERSION),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    assert isinstance(proposal.rwset.reads, tuple) and isinstance(proposal.rwset.writes, tuple)
