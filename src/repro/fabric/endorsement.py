"""Endorsement policies.

An endorsement policy dictates how many endorsements a proposal needs and
from whom (paper §II-B). We implement the common quorum form: at least
``min_endorsements`` from the ``allowed_endorsers`` set, optionally spanning
``min_organizations`` distinct organizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from repro.ledger.transaction import Endorsement, TransactionProposal


@dataclass(frozen=True)
class EndorsementPolicy:
    """Quorum endorsement policy.

    Attributes:
        allowed_endorsers: peer names permitted to endorse; empty means any
            peer.
        min_endorsements: minimum number of distinct endorsers.
        min_organizations: minimum number of distinct endorsing orgs.
    """

    allowed_endorsers: FrozenSet[str] = frozenset()
    min_endorsements: int = 1
    min_organizations: int = 1

    @classmethod
    def any_single(cls) -> "EndorsementPolicy":
        """The paper's Table II setting: a single endorsing peer."""
        return cls(min_endorsements=1, min_organizations=1)

    @classmethod
    def specific(cls, endorsers: Iterable[str], min_endorsements: Optional[int] = None) -> "EndorsementPolicy":
        names = frozenset(endorsers)
        required = len(names) if min_endorsements is None else min_endorsements
        return cls(allowed_endorsers=names, min_endorsements=required)

    def satisfied_by(self, endorsements: Iterable[Endorsement]) -> bool:
        """Check count / origin requirements over distinct endorsers."""
        eligible = [
            endorsement
            for endorsement in endorsements
            if not self.allowed_endorsers or endorsement.endorser in self.allowed_endorsers
        ]
        endorsers = {endorsement.endorser for endorsement in eligible}
        organizations = {endorsement.organization for endorsement in eligible}
        return (
            len(endorsers) >= self.min_endorsements
            and len(organizations) >= self.min_organizations
        )

    def validate_proposal(self, proposal: TransactionProposal) -> bool:
        """Full endorsement check: quorum satisfied AND digests agree."""
        return proposal.endorsements_consistent() and self.satisfied_by(proposal.endorsements)


#: What a peer or client built without a policy checks against. The class
#: is frozen, so one instance serves the whole deployment.
DEFAULT_POLICY = EndorsementPolicy.any_single()
