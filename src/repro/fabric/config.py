"""Configuration of Fabric roles."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ValidationMode(enum.Enum):
    """How peers process committed blocks.

    FULL runs the real per-transaction validation (endorsement policy +
    MVCC) and applies writes — required by the consistency experiments.
    The checks run once per block per run, at the first peer to commit it;
    the other peers take the same codes and writes from a memo on the
    block. That is exact, not an approximation: the verdict is a function
    of the block, the policy and the state before it, every peer commits
    the same ``Block`` object, and a peer replays only when its world
    state carries the tag of the state the memo was computed from (see
    ``KeyValueStore.state_tag`` and docs/performance.md, "Commit path").
    DELAY_ONLY models only the validation *latency* (blocks from the
    synthetic dissemination driver carry no meaningful state), which keeps
    the 100-peer × 1000-block bandwidth/latency runs tractable.
    """

    FULL = "full"
    DELAY_ONLY = "delay-only"


@dataclass
class OrdererConfig:
    """Ordering service parameters (paper §II-B, §V-A).

    Fabric cuts a block when it reaches ``max_tx_per_block`` transactions
    (paper experiments: 50) or when ``batch_timeout`` elapses since the
    first transaction of the batch (paper experiments: 2 s, varied down to
    0.75 s in Table II). ``consensus_delay`` models the Kafka/Zookeeper
    round trip before a cut block is final.
    """

    max_tx_per_block: int = 50
    batch_timeout: float = 2.0
    consensus_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.max_tx_per_block < 1:
            raise ValueError("max_tx_per_block must be >= 1")
        if self.batch_timeout <= 0 or self.consensus_delay < 0:
            raise ValueError("invalid orderer timers")


@dataclass
class PeerConfig:
    """Peer-side parameters.

    Attributes:
        per_tx_validation_time: seconds of validation work per transaction;
            the paper measures ~50 ms in the Table II experiment.
        endorsement_delay: chaincode simulation latency at an endorser.
        validation_mode: see :class:`ValidationMode`.
    """

    per_tx_validation_time: float = 0.010
    endorsement_delay: float = 0.005
    validation_mode: ValidationMode = ValidationMode.FULL

    def __post_init__(self) -> None:
        if self.per_tx_validation_time < 0 or self.endorsement_delay < 0:
            raise ValueError("delays must be >= 0")
