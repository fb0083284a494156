"""Transactions: endorsements, proposals and validation codes.

A client collects endorsements (endorsed read/write-set digests) from
endorsing peers, assembles them into a transaction proposal and submits it
to the ordering service. Peers later validate each proposal in its block:
endorsement-policy check plus MVCC read-set check.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List

from repro.crypto.identity import Identity
from repro.ledger.rwset import ReadWriteSet

# Wire size of an endorser's signature (a typical ECDSA-P256 DER
# signature). Nothing is signed: the size is all an endorsement carries of it.
SIGNATURE_SIZE_BYTES = 72

# Fabric 1.2 high-throughput sample: 50 tx ~ 160 KB => ~3.2 KB per tx on the
# wire (args, rwset encoding, endorsement signatures, headers).
DEFAULT_TX_SIZE_BYTES = 3_200


class ValidationCode(enum.Enum):
    """Per-transaction validation outcome, mirroring Fabric's codes."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    BAD_PROPOSAL = "BAD_PROPOSAL"

    @property
    def is_valid(self) -> bool:
        return self is ValidationCode.VALID


@dataclass(frozen=True)
class Endorsement:
    """An endorser's statement over a simulated rwset digest."""

    endorser: str
    organization: str
    rwset_digest: str

    @classmethod
    def create(cls, identity: Identity, rwset: ReadWriteSet) -> "Endorsement":
        return cls(
            endorser=identity.name,
            organization=identity.organization,
            rwset_digest=rwset.digest(),
        )

    @property
    def size_bytes(self) -> int:
        return SIGNATURE_SIZE_BYTES + 64  # signature + identity/digest framing


@dataclass
class TransactionProposal:
    """An endorsed transaction as submitted to the ordering service.

    Attributes:
        tx_id: unique transaction id.
        client: submitting client name.
        chaincode_id: chaincode the proposal invokes.
        args: invocation arguments (opaque tuple; used by experiments).
        rwset: the read/write set agreed by the endorsements.
        endorsements: collected endorsements.
        created_at: simulated time at which the client created the proposal.
        size_bytes: wire size contribution of this transaction in a block.
    """

    _ids = itertools.count()

    tx_id: str
    client: str
    chaincode_id: str
    args: tuple
    rwset: ReadWriteSet
    endorsements: List[Endorsement] = field(default_factory=list)
    created_at: float = 0.0
    size_bytes: int = DEFAULT_TX_SIZE_BYTES

    @classmethod
    def next_tx_id(cls, client: str) -> str:
        return f"tx-{client}-{next(cls._ids)}"

    def endorsements_consistent(self) -> bool:
        """True when all endorsements agree on the rwset digest.

        A mismatch is a *proposal-time* conflict (paper §II-C): endorsers
        simulated over different ledger heights. The client detects it here
        before submitting.
        """
        if not self.endorsements:
            return False
        digests = {endorsement.rwset_digest for endorsement in self.endorsements}
        return len(digests) == 1 and self.rwset.digest() in digests

    @property
    def endorsing_organizations(self) -> List[str]:
        return sorted({endorsement.organization for endorsement in self.endorsements})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Proposal {self.tx_id} cc={self.chaincode_id} endorsements={len(self.endorsements)}>"
