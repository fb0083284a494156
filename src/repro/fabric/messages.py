"""Control-plane messages of the transaction pipeline.

These carry endorsement requests/responses, proposal submissions and the
orderer-to-leader block delivery. Sizes are modest and only matter as minor
background load next to the 160 KB blocks.
"""

from __future__ import annotations

from typing import Tuple

from repro.ledger.block import Block
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import Endorsement, TransactionProposal
from repro.net.message import Message


class EndorsementRequest(Message):
    """Client -> endorsing peer: simulate this chaincode invocation."""

    __slots__ = ("request_id", "chaincode_id", "args")

    def __init__(self, request_id: str, chaincode_id: str, args: Tuple) -> None:
        super().__init__()
        self.request_id = request_id
        self.chaincode_id = chaincode_id
        self.args = args

    def payload_size(self) -> int:
        return 512  # signed proposal header + chaincode invocation spec


class EndorsementResponse(Message):
    """Endorsing peer -> client: rwset + endorsement (or refusal)."""

    __slots__ = ("request_id", "rwset", "endorsement", "success")

    def __init__(
        self,
        request_id: str,
        rwset: ReadWriteSet,
        endorsement: Endorsement,
        success: bool = True,
    ) -> None:
        super().__init__()
        self.request_id = request_id
        self.rwset = rwset
        self.endorsement = endorsement
        self.success = success

    def payload_size(self) -> int:
        rwset_size = 48 * (len(self.rwset.reads) + len(self.rwset.writes))
        return 256 + rwset_size + self.endorsement.size_bytes


class SubmitTransaction(Message):
    """Client -> ordering service: an endorsed transaction proposal."""

    __slots__ = ("proposal",)

    def __init__(self, proposal: TransactionProposal) -> None:
        super().__init__()
        self.proposal = proposal

    def payload_size(self) -> int:
        return self.proposal.size_bytes


class OrdererBlock(Message):
    """Ordering service -> leader peer: a freshly cut block."""

    __slots__ = ("block",)

    def __init__(self, block: Block) -> None:
        super().__init__()
        self.block = block

    def payload_size(self) -> int:
        return self.block.size_bytes()
