"""Chaincodes and their simulated execution.

A chaincode executes against a snapshot of the peer's world state through a
:class:`ChaincodeStub` that records every read (with its version) and write
into a :class:`~repro.ledger.rwset.ReadWriteSet` — the mechanism behind both
endorsement and validation. Chaincodes must be deterministic: for the same
input state and arguments they produce the same read/write sets, which is
what allows multiple mutually untrusted endorsers to agree.

Two concrete chaincodes reproduce the paper's workloads:

* :class:`HighThroughputAssetChaincode`: the Fabric "high-throughput
  network" sample [paper ref 1] — frequent updates to a crypto-asset
  value — used for the dissemination experiments.
* :class:`CounterIncrementChaincode`: the Table II workload — increment one
  of 100 integers, a read-modify-write whose races produce validation-time
  conflicts.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.ledger.kvstore import KeyValueStore, NIL_VERSION
from repro.ledger.rwset import ReadWriteSet


class ChaincodeStub:
    """The state interface handed to an executing chaincode.

    Reads go to the peer's committed store and are recorded with their
    versions; writes are buffered in the read/write set only — simulation
    never mutates the state (paper §II-B).
    """

    def __init__(self, store: KeyValueStore) -> None:
        self._store = store
        self.rwset = ReadWriteSet()

    def get_state(self, key: str) -> Any:
        """Read ``key`` from the world state, recording its version.

        A write buffered earlier in the same execution is visible
        (read-your-writes within a transaction).
        """
        if key in self.rwset.writes:
            return self.rwset.writes[key]
        entry = self._store.get(key)
        if entry is None:
            self.rwset.record_read(key, NIL_VERSION)
            return None
        self.rwset.record_read(key, entry.version)
        return entry.value

    def put_state(self, key: str, value: Any) -> None:
        """Buffer a write to ``key``."""
        self.rwset.record_write(key, value)


class Chaincode:
    """Deterministic smart-contract interface."""

    chaincode_id: str = "chaincode"

    def execute(self, stub: ChaincodeStub, args: Tuple) -> Any:
        """Run the contract against ``stub`` with ``args``."""
        raise NotImplementedError

    def simulate(self, store: KeyValueStore, args: Tuple) -> ReadWriteSet:
        """Execute against a store snapshot; return the read/write set."""
        stub = ChaincodeStub(store)
        self.execute(stub, args)
        return stub.rwset


class HighThroughputAssetChaincode(Chaincode):
    """The Fabric high-throughput sample: update an asset's value.

    ``args = (asset, delta, sequence)`` records ``delta`` against the asset.
    The sample avoids hot-key conflicts by writing delta rows under
    transaction-unique composite keys (``asset~sequence``; the client
    supplies the sequence, keeping execution deterministic across
    endorsers), so this workload generates load without MVCC conflicts —
    as in the paper's dissemination experiments, where conflicts are not
    the metric.
    """

    chaincode_id = "high-throughput"

    def execute(self, stub: ChaincodeStub, args: Tuple) -> Any:
        asset, delta, sequence = args
        row_key = f"{asset}~{sequence}"
        stub.put_state(row_key, delta)
        return row_key


class CounterIncrementChaincode(Chaincode):
    """The Table II workload: read-modify-write increment of a counter.

    ``args = (counter_key,)``. Two increments simulated over the same
    committed value race: the one ordered second fails MVCC validation.
    """

    chaincode_id = "counter-increment"

    def execute(self, stub: ChaincodeStub, args: Tuple) -> Any:
        (key,) = args
        current = stub.get_state(key)
        value = 0 if current is None else int(current)
        stub.put_state(key, value + 1)
        return value + 1


class ChaincodeRegistry:
    """The chaincodes installed on a peer (most peers install none)."""

    __slots__ = ("_chaincodes",)

    def __init__(self) -> None:
        # Made at the first install.
        self._chaincodes: Optional[Dict[str, Chaincode]] = None

    def install(self, chaincode: Chaincode) -> None:
        if self._chaincodes is None:
            self._chaincodes = {}
        elif chaincode.chaincode_id in self._chaincodes:
            raise ValueError(f"chaincode {chaincode.chaincode_id!r} already installed")
        self._chaincodes[chaincode.chaincode_id] = chaincode

    def get(self, chaincode_id: str) -> Optional[Chaincode]:
        return None if self._chaincodes is None else self._chaincodes.get(chaincode_id)

    def __contains__(self, chaincode_id: str) -> bool:
        return self._chaincodes is not None and chaincode_id in self._chaincodes
