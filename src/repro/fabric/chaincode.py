"""Chaincodes and their simulated execution.

A chaincode executes against a snapshot of the peer's world state through a
:class:`ChaincodeStub` that records every read (with its version) and write;
the simulation hands them over as a frozen
:class:`~repro.ledger.rwset.ReadWriteSet` — the mechanism behind both
endorsement and validation. Chaincodes must be deterministic: for the same
input state and arguments they produce the same read/write sets, which is
what allows multiple mutually untrusted endorsers to agree.

:class:`CounterIncrementChaincode` is the Table II workload: increment one
of 100 integers, a read-modify-write whose races produce validation-time
conflicts. The dissemination experiments execute no chaincode: their
blocks carry inert transactions (``synthetic_block_transactions``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.ledger.kvstore import KeyValueStore, NIL_VERSION, Version
from repro.ledger.rwset import ReadWriteSet


class ChaincodeStub:
    """The state interface handed to an executing chaincode.

    Reads go to the peer's committed store and are recorded with their
    versions (``reads``, key -> Version); writes are buffered in ``writes``
    (key -> value) only — simulation never mutates the state (paper §II-B).
    """

    def __init__(self, store: KeyValueStore) -> None:
        self._store = store
        self.reads: Dict[str, Version] = {}
        self.writes: Dict[str, Any] = {}

    def get_state(self, key: str) -> Any:
        """Read ``key`` from the world state, recording its version.

        A write buffered earlier in the same execution is visible
        (read-your-writes within a transaction). The first read of a key
        wins, as the simulated execution sees a stable snapshot.
        """
        if key in self.writes:
            return self.writes[key]
        entry = self._store.get(key)
        if entry is None:
            self.reads.setdefault(key, NIL_VERSION)
            return None
        self.reads.setdefault(key, entry.version)
        return entry.value

    def put_state(self, key: str, value: Any) -> None:
        """Buffer a write to ``key``."""
        self.writes[key] = value


class Chaincode:
    """Deterministic smart-contract interface."""

    chaincode_id: str = "chaincode"

    def execute(self, stub: ChaincodeStub, args: Tuple) -> Any:
        """Run the contract against ``stub`` with ``args``."""
        raise NotImplementedError

    def simulate(self, store: KeyValueStore, args: Tuple) -> ReadWriteSet:
        """Execute against a store snapshot; return the frozen read/write set."""
        stub = ChaincodeStub(store)
        self.execute(stub, args)
        return ReadWriteSet(tuple(stub.reads.items()), tuple(stub.writes.items()))


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
