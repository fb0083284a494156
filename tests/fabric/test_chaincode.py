"""Unit tests for chaincodes and simulated execution."""

import pytest

from repro.fabric.chaincode import (
    ChaincodeRegistry,
    ChaincodeStub,
    CounterIncrementChaincode,
)
from repro.ledger.kvstore import KeyValueStore, NIL_VERSION, Version


def test_stub_read_records_version():
    store = KeyValueStore()
    store.put("x", 10, Version(3, 1))
    stub = ChaincodeStub(store)
    assert stub.get_state("x") == 10
    assert stub.reads["x"] == Version(3, 1)


def test_stub_read_of_absent_key_records_nil():
    stub = ChaincodeStub(KeyValueStore())
    assert stub.get_state("nope") is None
    assert stub.reads["nope"] == NIL_VERSION


def test_stub_write_buffers_without_mutating_store():
    store = KeyValueStore()
    stub = ChaincodeStub(store)
    stub.put_state("x", 42)
    assert "x" not in store
    assert stub.writes == {"x": 42}


def test_stub_read_your_writes():
    stub = ChaincodeStub(KeyValueStore())
    stub.put_state("x", 5)
    assert stub.get_state("x") == 5


def test_counter_increment_from_absent():
    store = KeyValueStore()
    rwset = CounterIncrementChaincode().simulate(store, ("c1",))
    assert rwset.writes == (("c1", 1),)
    assert rwset.reads == (("c1", NIL_VERSION),)


def test_counter_increment_reads_current_value():
    store = KeyValueStore()
    store.put("c1", 7, Version(2, 0))
    rwset = CounterIncrementChaincode().simulate(store, ("c1",))
    assert rwset.writes == (("c1", 8),)
    assert rwset.reads == (("c1", Version(2, 0)),)


def test_counter_increment_deterministic():
    """Two endorsers over the same state produce identical digests."""
    store_a, store_b = KeyValueStore(), KeyValueStore()
    for store in (store_a, store_b):
        store.put("c1", 3, Version(1, 0))
    digest_a = CounterIncrementChaincode().simulate(store_a, ("c1",)).digest()
    digest_b = CounterIncrementChaincode().simulate(store_b, ("c1",)).digest()
    assert digest_a == digest_b


def test_counter_increment_over_different_heights_diverges():
    """Proposal-time conflicts: different state => different digests."""
    behind, ahead = KeyValueStore(), KeyValueStore()
    behind.put("c1", 3, Version(1, 0))
    ahead.put("c1", 4, Version(2, 0))
    chaincode = CounterIncrementChaincode()
    assert chaincode.simulate(behind, ("c1",)).digest() != chaincode.simulate(ahead, ("c1",)).digest()


def test_registry_install_and_get():
    registry = ChaincodeRegistry()
    chaincode = CounterIncrementChaincode()
    registry.install(chaincode)
    assert registry.get("counter-increment") is chaincode
    assert "counter-increment" in registry
    assert registry.get("missing") is None


def test_registry_rejects_duplicates():
    registry = ChaincodeRegistry()
    registry.install(CounterIncrementChaincode())
    with pytest.raises(ValueError):
        registry.install(CounterIncrementChaincode())
