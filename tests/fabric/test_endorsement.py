"""Unit tests for endorsement policies."""

from repro.crypto.identity import Identity
from repro.fabric.endorsement import EndorsementPolicy
from repro.ledger.kvstore import Version
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import Endorsement, TransactionProposal


def make_endorsements(names_orgs, rwset):
    return [
        Endorsement.create(Identity(name, org, "peer"), rwset)
        for name, org in names_orgs
    ]


def make_rwset():
    return ReadWriteSet(reads=(("k", Version(0, 0)),), writes=(("k", 1),))


def test_any_single_policy():
    policy = EndorsementPolicy.any_single()
    rwset = make_rwset()
    assert policy.satisfied_by(make_endorsements([("e1", "org0")], rwset))
    assert not policy.satisfied_by([])


def test_min_endorsements_quorum():
    policy = EndorsementPolicy(min_endorsements=2)
    rwset = make_rwset()
    one = make_endorsements([("e1", "org0")], rwset)
    two = make_endorsements([("e1", "org0"), ("e2", "org0")], rwset)
    assert not policy.satisfied_by(one)
    assert policy.satisfied_by(two)


def test_duplicate_endorser_counted_once():
    policy = EndorsementPolicy(min_endorsements=2)
    rwset = make_rwset()
    endorsements = make_endorsements([("e1", "org0")], rwset) * 2
    assert not policy.satisfied_by(endorsements)


def test_min_organizations():
    policy = EndorsementPolicy(min_endorsements=2, min_organizations=2)
    rwset = make_rwset()
    same_org = make_endorsements([("e1", "org0"), ("e2", "org0")], rwset)
    two_orgs = make_endorsements([("e1", "org0"), ("e2", "org1")], rwset)
    assert not policy.satisfied_by(same_org)
    assert policy.satisfied_by(two_orgs)


def test_allowed_endorsers_restriction():
    policy = EndorsementPolicy.specific(["e1", "e2"], min_endorsements=1)
    rwset = make_rwset()
    allowed = make_endorsements([("e1", "org0")], rwset)
    outsider = make_endorsements([("e9", "org0")], rwset)
    assert policy.satisfied_by(allowed)
    assert not policy.satisfied_by(outsider)


def test_specific_defaults_to_all_required():
    policy = EndorsementPolicy.specific(["e1", "e2"])
    assert policy.min_endorsements == 2


def test_validate_proposal_checks_consistency_too():
    policy = EndorsementPolicy.any_single()
    rwset = make_rwset()
    endorsements = make_endorsements([("e1", "org0")], rwset)
    good = TransactionProposal(
        tx_id="t", client="c", chaincode_id="cc", args=(), rwset=rwset,
        endorsements=endorsements,
    )
    assert policy.validate_proposal(good)
    other_rwset = ReadWriteSet(writes=(("k", 99),))
    inconsistent = TransactionProposal(
        tx_id="t", client="c", chaincode_id="cc", args=(), rwset=other_rwset,
        endorsements=endorsements,
    )
    assert not policy.validate_proposal(inconsistent)
