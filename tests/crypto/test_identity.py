"""Unit tests for MSP identities."""

import copy
import pickle

import pytest

from repro.crypto.hashing import hash_fields
from repro.crypto.identity import Identity, MembershipServiceProvider


def test_enroll_and_lookup():
    msp = MembershipServiceProvider()
    identity = msp.enroll("peer-0", "org0", "peer")
    assert msp.lookup("peer-0") is identity
    assert msp.is_certified("peer-0")


def test_unknown_identity():
    msp = MembershipServiceProvider()
    assert msp.lookup("nope") is None
    assert not msp.is_certified("nope")


def test_duplicate_enrollment_rejected():
    msp = MembershipServiceProvider()
    msp.enroll("peer-0", "org0", "peer")
    with pytest.raises(ValueError):
        msp.enroll("peer-0", "org1", "peer")


def test_invalid_role_rejected():
    with pytest.raises(ValueError):
        Identity(name="x", organization="o", role="miner")


def test_signing_key_depends_on_identity():
    msp = MembershipServiceProvider()
    a = msp.enroll("a", "org0", "peer")
    b = msp.enroll("b", "org0", "peer")
    assert a.signing_key != b.signing_key


def test_signing_keys_differ_across_msp_domains():
    a = MembershipServiceProvider(domain="d1").enroll("a", "org0", "peer")
    b = MembershipServiceProvider(domain="d2").enroll("a", "org0", "peer")
    assert a.signing_key != b.signing_key


def test_the_key_seed_derives_from_the_msp_domain_when_asked_for():
    identity = MembershipServiceProvider(domain="d1").enroll("a", "org0", "peer")
    assert identity.key_seed == hash_fields("d1", "a", "org0", "peer")
    assert identity.signing_key == hash_fields("signing-key", "a", "org0", identity.key_seed)
    assert Identity(name="a", organization="org0", role="peer").key_seed == ""


def test_an_identity_is_immutable_and_copies_whole():
    a = MembershipServiceProvider(domain="d1").enroll("a", "org0", "peer")
    with pytest.raises(AttributeError):
        a.role = "orderer"
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == "Identity(name='a', organization='org0', role='peer')"
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert (twin.name, twin.organization, twin.role, twin.domain) == ("a", "org0", "peer", "d1")
        assert twin.signing_key == a.signing_key


def test_members_filtered_by_org_and_role():
    msp = MembershipServiceProvider()
    msp.enroll("p0", "org0", "peer")
    msp.enroll("p1", "org1", "peer")
    msp.enroll("o0", "orderer-org", "orderer")
    assert [i.name for i in msp.members(organization="org0")] == ["p0"]
    assert [i.name for i in msp.members(role="orderer")] == ["o0"]
    assert len(msp.members()) == 3


def test_members_sorted_by_name():
    msp = MembershipServiceProvider()
    msp.enroll("b", "org0", "peer")
    msp.enroll("a", "org0", "peer")
    assert [i.name for i in msp.members()] == ["a", "b"]


def test_organizations_listing():
    msp = MembershipServiceProvider()
    msp.enroll("p0", "org1", "peer")
    msp.enroll("p1", "org0", "peer")
    assert msp.organizations() == ["org0", "org1"]


def test_len_counts_identities():
    msp = MembershipServiceProvider()
    msp.enroll("a", "org0", "peer")
    msp.enroll("b", "org0", "client")
    assert len(msp) == 2
