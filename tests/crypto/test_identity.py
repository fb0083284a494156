"""Unit tests for node identities."""

import copy
import pickle

import pytest

from repro.crypto.identity import Identity


def test_invalid_role_rejected():
    with pytest.raises(ValueError):
        Identity(name="x", organization="o", role="miner")


@pytest.mark.parametrize("role", ["peer", "orderer", "client"])
def test_every_node_role_is_accepted(role):
    identity = Identity("n", "org0", role)
    assert (identity.name, identity.organization, identity.role) == ("n", "org0", role)


def test_an_identity_holds_no_key_material():
    """Nothing is signed, so an identity is its three fields and no more:
    no per-instance dict, no key seed, no signing key, no MSP domain."""
    identity = Identity("a", "org0", "peer")
    assert Identity.__slots__ == ("name", "organization", "role")
    assert not hasattr(identity, "__dict__")
    for gone in ("signing_key", "key_seed", "domain"):
        assert not hasattr(identity, gone)


def test_an_identity_is_immutable_and_copies_whole():
    a = Identity("a", "org0", "peer")
    with pytest.raises(AttributeError):
        a.role = "orderer"
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == "Identity(name='a', organization='org0', role='peer')"
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert (twin.name, twin.organization, twin.role) == ("a", "org0", "peer")
