"""Fabric clients.

A client walks one operation at a time through the execute-order pipeline:
it sends the chaincode invocation to the configured endorsing peers,
collects their endorsements, checks them for consistency (a mismatch is a
*proposal-time* conflict, detected by comparing read-set versions — paper
§II-C), assembles a transaction proposal and submits it to the ordering
service. Conflicted or under-endorsed proposals are dropped, matching the
paper's Table II methodology ("we do not resend conflicted transactions").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.identity import Identity
from repro.fabric.endorsement import DEFAULT_POLICY, EndorsementPolicy
from repro.fabric.messages import EndorsementRequest, EndorsementResponse, SubmitTransaction
from repro.ledger.transaction import TransactionProposal
from repro.net.network import Network
from repro.simulation.process import Process
from repro.simulation.random import RandomStreams

# A workload yields (chaincode_id, args) invocation specs.
Operation = Tuple[str, tuple]


@dataclass
class ClientStats:
    """Submission accounting for one client."""

    proposals_submitted: int = 0
    proposal_time_conflicts: int = 0


@dataclass
class _PendingOperation:
    chaincode_id: str
    args: tuple
    started_at: float
    expected: int
    responses: List[EndorsementResponse] = field(default_factory=list)


class Client(Process):
    """A transaction-submitting client driven by a workload generator."""

    _request_ids = itertools.count()

    def __init__(
        self,
        sim,
        network: Network,
        streams: RandomStreams,
        identity: Identity,
        endorsers: List[str],
        orderer: str,
        workload: Callable[[], Optional[Operation]],
        rate: float,
        policy: Optional[EndorsementPolicy] = None,
        endorsement_timeout: float = 5.0,
        tx_size_bytes: int = 3_200,
    ) -> None:
        """
        Args:
            endorsers: peers asked to endorse every operation.
            orderer: name of the ordering service node.
            workload: callable returning the next (chaincode_id, args) or
                None when the workload is exhausted.
            rate: operations per second (paper Table II: 5 tx/s).
            policy: endorsement policy embedded in proposals.
            endorsement_timeout: drop an operation whose endorsements do
                not all arrive within this delay.
        """
        super().__init__(sim, identity.name, streams)
        if not endorsers:
            raise ValueError("client needs at least one endorser")
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.network = network
        self.identity = identity
        self.endorsers = list(endorsers)
        self.orderer = orderer
        self.workload = workload
        self.rate = rate
        self.policy = policy or DEFAULT_POLICY
        self.endorsement_timeout = endorsement_timeout
        self.tx_size_bytes = tx_size_bytes
        self.stats = ClientStats()
        self._pending: Dict[str, _PendingOperation] = {}
        self._exhausted = False
        network.register(self.name, (self.ROUTES, self))

    def start(self) -> None:
        """Begin issuing operations at the configured rate."""
        self.every(1.0 / self.rate, self._next_operation, initial_delay=1.0 / self.rate)

    @property
    def workload_exhausted(self) -> bool:
        return self._exhausted

    @property
    def idle(self) -> bool:
        """True once the workload is exhausted and nothing is in flight."""
        return self._exhausted and not self._pending

    # ----- issuing -----------------------------------------------------------

    def _next_operation(self) -> None:
        if self._exhausted:
            return
        operation = self.workload()
        if operation is None:
            self._exhausted = True
            return
        chaincode_id, args = operation
        request_id = f"req-{self.name}-{next(Client._request_ids)}"
        self._pending[request_id] = _PendingOperation(
            chaincode_id=chaincode_id,
            args=args,
            started_at=self.now,
            expected=len(self.endorsers),
        )
        for endorser in self.endorsers:
            self.network.send(self.name, endorser, EndorsementRequest(request_id, chaincode_id, args))
        self.after(self.endorsement_timeout, self._expire, request_id)

    def _expire(self, request_id: str) -> None:
        self._pending.pop(request_id, None)

    # ----- collection ----------------------------------------------------------

    def _on_endorsement_response(self, src: str, message: EndorsementResponse) -> None:
        if not self._alive:
            return
        pending = self._pending.get(message.request_id)
        if pending is None:
            return
        pending.responses.append(message)
        if len(pending.responses) >= pending.expected:
            del self._pending[message.request_id]
            self._assemble(message.request_id, pending)

    # Exact-type routes over the routes ``(ROUTES, self)`` the constructor
    # registers; see repro.gossip.base.GossipModule.ROUTES.
    ROUTES = {EndorsementResponse: (1, _on_endorsement_response)}

    def _assemble(self, request_id: str, pending: _PendingOperation) -> None:
        digests = {response.rwset.digest() for response in pending.responses}
        if len(digests) != 1:
            # Proposal-time conflict: endorsers simulated over different
            # ledger heights. The client detects it and drops the proposal.
            self.stats.proposal_time_conflicts += 1
            return
        rwset = pending.responses[0].rwset
        endorsements = [response.endorsement for response in pending.responses]
        proposal = TransactionProposal(
            tx_id=TransactionProposal.next_tx_id(self.name),
            client=self.name,
            chaincode_id=pending.chaincode_id,
            args=pending.args,
            rwset=rwset,
            endorsements=endorsements,
            created_at=pending.started_at,
            size_bytes=self.tx_size_bytes,
        )
        self.network.send(self.name, self.orderer, SubmitTransaction(proposal))
        self.stats.proposals_submitted += 1
