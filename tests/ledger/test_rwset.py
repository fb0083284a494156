"""Unit tests for read/write sets."""

from repro.crypto.hashing import hash_fields
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.ledger.kvstore import KeyValueStore, NIL_VERSION, Version
from repro.ledger.rwset import ReadWriteSet


def frozen(reads=None, writes=None):
    """A set of the pairs of ``reads`` / ``writes``, as a simulation hands over."""
    return ReadWriteSet(tuple((reads or {}).items()), tuple((writes or {}).items()))


def test_record_read_first_wins():
    store = KeyValueStore()
    store.put("k", 0, Version(1, 0))
    stub = ChaincodeStub(store)
    stub.get_state("k")
    store.put("k", 1, Version(2, 0))
    stub.get_state("k")
    assert stub.reads["k"] == Version(1, 0)


def test_record_write_last_wins():
    stub = ChaincodeStub(KeyValueStore())
    stub.put_state("k", 1)
    stub.put_state("k", 2)
    assert stub.writes["k"] == 2


def test_digest_deterministic_and_order_insensitive():
    a = frozen(reads={"x": Version(0, 0), "y": Version(1, 0)})
    b = frozen(reads={"y": Version(1, 0), "x": Version(0, 0)})
    assert a.digest() == b.digest()


def test_digest_sensitive_to_versions():
    assert frozen(reads={"x": Version(0, 0)}).digest() != frozen(reads={"x": Version(1, 0)}).digest()


def test_digest_sensitive_to_write_values():
    assert frozen(writes={"x": 1}).digest() != frozen(writes={"x": 2}).digest()


class _ReadTwoWriteOne(Chaincode):
    def execute(self, stub, args):
        stub.get_state("y")
        stub.get_state("x")
        stub.put_state("x", 1)


def test_a_simulated_set_is_frozen_into_pairs():
    store = KeyValueStore()
    store.put("y", 0, Version(1, 0))
    rwset = _ReadTwoWriteOne().simulate(store, ())
    assert rwset.reads == (("y", Version(1, 0)), ("x", NIL_VERSION))  # recording order
    assert rwset.writes == (("x", 1),)
    assert rwset.digest() is rwset.digest()  # computed once


def test_the_digest_is_the_recorded_dicts_hash():
    """The pairs hash byte-identically to the recorded dicts taken key by
    key, reads then writes."""
    rwset = frozen(reads={"b": Version(2, 7), "a": NIL_VERSION}, writes={"b": 3, "a": "v"})
    assert rwset.digest() == hash_fields(
        "r", "a", -1, -1, "r", "b", 2, 7, "w", "a", "'v'", "w", "b", "3"
    )


def test_conflicts_with_state_detects_stale_read():
    store = KeyValueStore()
    store.put("x", 1, Version(5, 0))
    rwset = frozen(reads={"x": Version(4, 0)})  # simulated over an older state
    assert rwset.conflicts_with_state(store.get_version)


def test_no_conflict_on_matching_versions():
    store = KeyValueStore()
    store.put("x", 1, Version(5, 0))
    rwset = frozen(reads={"x": Version(5, 0)})
    assert not rwset.conflicts_with_state(store.get_version)


def test_read_of_absent_key_matches_nil_version():
    store = KeyValueStore()
    rwset = frozen(reads={"never-written": NIL_VERSION})
    assert not rwset.conflicts_with_state(store.get_version)


def test_read_of_absent_key_conflicts_once_written():
    store = KeyValueStore()
    rwset = frozen(reads={"x": NIL_VERSION})
    store.put("x", 1, Version(0, 0))
    assert rwset.conflicts_with_state(store.get_version)


def test_write_only_set_never_conflicts():
    store = KeyValueStore()
    store.put("x", 1, Version(3, 0))
    rwset = frozen(writes={"x": 2})  # blind write: no read, no conflict
    assert not rwset.conflicts_with_state(store.get_version)
