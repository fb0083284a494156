"""MSP-style identities.

In Fabric, a trusted membership service provider (MSP) certifies every
orderer and peer. The simulation keeps the structure: identities carry an
organization (MSP ID), a role, and a key seed from which their simulated
signing key derives. The :class:`MembershipServiceProvider` is the registry
used to validate that a signer is a known, certified identity — the property
the permissioned model depends on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.hashing import hash_fields

VALID_ROLES = ("peer", "orderer", "client")


class Identity:
    """A certified network identity: immutable, one object per enrolled
    name, and slotted with its key seed derived on demand (64 B): every
    shard enrolls the whole membership, and most nodes never sign.

    Attributes:
        name: globally unique node name (e.g. ``"peer-12"``).
        organization: MSP ID of the owning organization.
        role: one of ``peer``, ``orderer``, ``client``.
        domain: the certifying MSP's domain (``None`` outside an MSP).
    """

    __slots__ = ("name", "organization", "role", "domain")

    def __init__(self, name: str, organization: str, role: str, domain: Optional[str] = None) -> None:
        if role not in VALID_ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {VALID_ROLES}")
        for slot, value in zip(self.__slots__, (name, organization, role, domain)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Identity is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Identity, (self.name, self.organization, self.role, self.domain))

    def __repr__(self) -> str:
        return f"Identity(name={self.name!r}, organization={self.organization!r}, role={self.role!r})"

    @property
    def key_seed(self) -> str:
        """Seed of the simulated signing key ("" outside an MSP)."""
        if self.domain is None:
            return ""
        return hash_fields(self.domain, self.name, self.organization, self.role)

    @property
    def signing_key(self) -> str:
        """Derived (simulated) private signing key material."""
        return hash_fields("signing-key", self.name, self.organization, self.key_seed)


class MembershipServiceProvider:
    """Registry of certified identities (the trusted MSP of the paper)."""

    def __init__(self, domain: str = "fabric") -> None:
        self.domain = domain
        self._identities: Dict[str, Identity] = {}

    def enroll(self, name: str, organization: str, role: str) -> Identity:
        """Certify a new identity; names are unique across the network."""
        if name in self._identities:
            raise ValueError(f"identity {name!r} already enrolled")
        identity = Identity(name, organization, role, self.domain)
        self._identities[name] = identity
        return identity

    def lookup(self, name: str) -> Optional[Identity]:
        return self._identities.get(name)

    def is_certified(self, name: str) -> bool:
        return name in self._identities

    def members(self, organization: Optional[str] = None, role: Optional[str] = None) -> List[Identity]:
        """All identities, optionally filtered by org and/or role."""
        result = []
        for identity in self._identities.values():
            if organization is not None and identity.organization != organization:
                continue
            if role is not None and identity.role != role:
                continue
            result.append(identity)
        return sorted(result, key=lambda ident: ident.name)

    def organizations(self) -> List[str]:
        return sorted({identity.organization for identity in self._identities.values()})

    def __len__(self) -> int:
        return len(self._identities)
