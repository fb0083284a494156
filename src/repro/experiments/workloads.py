"""The paper's workloads.

* **High-throughput asset updates** (§V-A): the Fabric high-throughput
  sample, a cryptocurrency asset whose value is frequently modified;
  50,000 sequential transactions filling 50-tx blocks every ~1.5 s. The
  dissemination experiments use a synthetic block filler that reproduces
  the block arrival process (size and cadence) without paying for 50,000
  endorsement round trips.

* **Counter increments** (§V-D, Table II): 100 integers, each incremented
  100 times, at a fixed client rate of 5 tx/s, with a fresh random
  permutation of the 100 keys in every round of increments. Conflicts are
  increments of the same key racing within the dissemination/validation
  window.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.fabric.chaincode import CounterIncrementChaincode, HighThroughputAssetChaincode
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import TransactionProposal


def synthetic_block_transactions(tx_per_block: int, tx_size: int) -> List[TransactionProposal]:
    """A reusable list of inert transactions sized like the paper's.

    The dissemination experiments measure latency and bandwidth only, so
    the transactions carry no state; one shared list keeps block creation
    cheap while every block still hashes, links and weighs exactly like a
    real one (50 tx ≈ 160 KB).
    """
    if tx_per_block < 1 or tx_size < 1:
        raise ValueError("tx_per_block and tx_size must be positive")
    return [
        TransactionProposal(
            tx_id=f"synthetic-{index}",
            client="driver",
            chaincode_id=HighThroughputAssetChaincode.chaincode_id,
            args=("asset", 1, index),
            rwset=ReadWriteSet(),
            endorsements=[],
            size_bytes=tx_size,
        )
        for index in range(tx_per_block)
    ]


class CounterIncrementWorkload:
    """The Table II workload: permuted rounds of counter increments.

    Args:
        keys: number of distinct counters (paper: 100).
        increments_per_key: rounds of increments (paper: 100; the scaled
            default experiments use fewer rounds with identical structure).
        rng: permutation source (seeded for reproducibility).

    The expected final ledger, absent conflicts, holds every counter at
    ``increments_per_key``; Table II's conflict count is
    ``total_transactions - sum(final counters)``.
    """

    def __init__(self, keys: int, increments_per_key: int, rng: random.Random) -> None:
        if keys < 1 or increments_per_key < 1:
            raise ValueError("keys and increments_per_key must be positive")
        self.keys = keys
        self.increments_per_key = increments_per_key
        self._rng = rng
        self._round = 0
        self._position = 0
        self._permutation = self._new_permutation()
        self.issued = 0

    def _new_permutation(self) -> List[str]:
        names = [f"counter-{index}" for index in range(self.keys)]
        self._rng.shuffle(names)
        return names

    @property
    def total_transactions(self) -> int:
        return self.keys * self.increments_per_key

    def __call__(self) -> Optional[Tuple[str, tuple]]:
        if self._round >= self.increments_per_key:
            return None
        key = self._permutation[self._position]
        self._position += 1
        if self._position >= self.keys:
            self._position = 0
            self._round += 1
            if self._round < self.increments_per_key:
                self._permutation = self._new_permutation()
        self.issued += 1
        return (CounterIncrementChaincode.chaincode_id, (key,))
