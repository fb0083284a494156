"""Unit tests for transactions and endorsements."""

import pytest

from repro.crypto.identity import Identity
from repro.fabric.messages import EndorsementResponse, SubmitTransaction
from repro.ledger.kvstore import Version
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import (
    DEFAULT_TX_SIZE_BYTES,
    SIGNATURE_SIZE_BYTES,
    Endorsement,
    TransactionProposal,
    ValidationCode,
)


def make_rwset(version=Version(0, 0)):
    return ReadWriteSet(reads=(("x", version),), writes=(("x", 1),))


def make_endorser(name="endorser-0"):
    return Identity(name, "org0", "peer")


def test_endorsement_carries_the_rwset_digest():
    identity = make_endorser()
    rwset = make_rwset()
    endorsement = Endorsement.create(identity, rwset)
    assert endorsement.rwset_digest == rwset.digest()
    assert endorsement.endorser == "endorser-0"


def test_endorsement_wire_size_is_pinned():
    """A 72 B signature plus 64 B of identity/digest framing: the wire
    size every endorsement response and transaction is charged."""
    assert Endorsement.create(make_endorser(), make_rwset()).size_bytes == 136


def test_signature_size_constant():
    """Typical ECDSA-P256 DER signature size; 64 B of framing on top."""
    assert SIGNATURE_SIZE_BYTES == 72
    assert Endorsement.create(make_endorser(), make_rwset()).size_bytes == SIGNATURE_SIZE_BYTES + 64


@pytest.mark.parametrize("reads, writes", [(0, 0), (1, 0), (2, 3)])
def test_endorsement_response_charges_48_bytes_per_rwset_entry(reads, writes):
    rwset = ReadWriteSet(
        reads=tuple((f"r{index}", Version(0, 0)) for index in range(reads)),
        writes=tuple((f"w{index}", index) for index in range(writes)),
    )
    endorsement = Endorsement.create(make_endorser(), rwset)
    response = EndorsementResponse("req-0", rwset, endorsement)
    assert response.payload_size() == 256 + 48 * (reads + writes) + 136


def test_endorsement_response_and_submission_payload_sizes_are_pinned():
    rwset = make_rwset()  # one read, one write
    endorsement = Endorsement.create(make_endorser(), rwset)
    assert EndorsementResponse("req-0", rwset, endorsement).payload_size() == 256 + 2 * 48 + 136
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=rwset,
        endorsements=[endorsement],
    )
    assert SubmitTransaction(proposal).payload_size() == DEFAULT_TX_SIZE_BYTES == 3_200


def test_endorsement_carries_org():
    endorsement = Endorsement.create(make_endorser(), make_rwset())
    assert endorsement.organization == "org0"


def test_proposal_consistent_endorsements():
    identity = make_endorser()
    rwset = make_rwset()
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=rwset,
        endorsements=[Endorsement.create(identity, rwset)],
    )
    assert proposal.endorsements_consistent()


def test_proposal_detects_digest_mismatch():
    e1 = Identity("e1", "org0", "peer")
    e2 = Identity("e2", "org0", "peer")
    rwset_new = make_rwset(Version(1, 0))
    rwset_old = make_rwset(Version(0, 0))  # endorser behind by one block
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=rwset_new,
        endorsements=[Endorsement.create(e1, rwset_new), Endorsement.create(e2, rwset_old)],
    )
    assert not proposal.endorsements_consistent()


def test_proposal_without_endorsements_inconsistent():
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=make_rwset()
    )
    assert not proposal.endorsements_consistent()


def test_proposal_rwset_must_match_endorsed_digest():
    identity = make_endorser()
    endorsed = make_rwset()
    different = make_rwset(Version(9, 9))
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=different,
        endorsements=[Endorsement.create(identity, endorsed)],
    )
    assert not proposal.endorsements_consistent()


def test_endorsing_organizations_deduplicated():
    rwset = make_rwset()
    endorsements = [
        Endorsement.create(Identity("e1", "org0", "peer"), rwset),
        Endorsement.create(Identity("e2", "org0", "peer"), rwset),
        Endorsement.create(Identity("e3", "org1", "peer"), rwset),
    ]
    proposal = TransactionProposal(
        tx_id="t1", client="c", chaincode_id="cc", args=(), rwset=rwset,
        endorsements=endorsements,
    )
    assert proposal.endorsing_organizations == ["org0", "org1"]


def test_validation_code_validity():
    assert ValidationCode.VALID.is_valid
    assert not ValidationCode.MVCC_READ_CONFLICT.is_valid
    assert not ValidationCode.ENDORSEMENT_POLICY_FAILURE.is_valid
