"""Transactions: endorsements, proposals and validation codes.

A client collects endorsements (endorsed read/write-set digests) from
endorsing peers, assembles them into a transaction proposal and submits it
to the ordering service. Peers later validate each proposal in its block:
endorsement-policy check plus MVCC read-set check.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Tuple

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


class Endorsement:
    """An endorser's statement over a simulated rwset digest.

    Attributes:
        endorser: name of the endorsing peer.
        organization: MSP ID of the endorser's organization.
        rwset_digest: digest of the read/write set the endorser simulated.
    """

    __slots__ = ("endorser", "organization", "rwset_digest")

    def __init__(self, endorser: str, organization: str, rwset_digest: str) -> None:
        self.endorser = endorser
        self.organization = organization
        self.rwset_digest = rwset_digest

    @classmethod
    def create(cls, identity: Identity, rwset: ReadWriteSet) -> "Endorsement":
        return cls(identity.name, identity.organization, rwset.digest())

    @property
    def size_bytes(self) -> int:
        return SIGNATURE_SIZE_BYTES + 64  # signature + identity/digest framing


class TransactionProposal:
    """An endorsed transaction as submitted to the ordering service.

    Attributes:
        tx_id: unique transaction id.
        client: submitting client name.
        chaincode_id: chaincode the proposal invokes.
        args: invocation arguments (opaque tuple; used by experiments).
        rwset: the read/write set agreed by the endorsements.
        endorsements: collected endorsements, a tuple.
        created_at: simulated time at which the client created the proposal.
        size_bytes: wire size contribution of this transaction in a block.
    """

    __slots__ = (
        "tx_id",
        "client",
        "chaincode_id",
        "args",
        "rwset",
        "endorsements",
        "created_at",
        "size_bytes",
    )

    def __init__(
        self,
        tx_id: str,
        client: str,
        chaincode_id: str,
        args: tuple,
        rwset: ReadWriteSet,
        endorsements: Iterable[Endorsement] = (),
        created_at: float = 0.0,
        size_bytes: int = DEFAULT_TX_SIZE_BYTES,
    ) -> None:
        self.tx_id = tx_id
        self.client = client
        self.chaincode_id = chaincode_id
        self.args = args
        self.rwset = rwset
        self.endorsements: Tuple[Endorsement, ...] = tuple(endorsements)
        self.created_at = created_at
        self.size_bytes = size_bytes

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
