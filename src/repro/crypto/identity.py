"""Node identities.

In Fabric, a trusted membership service provider (MSP) certifies every
orderer and peer. The simulation keeps what the endorsement policy checks:
an identity carries its node's name, its organization (MSP ID) and its
role. Name uniqueness is the network's (``Network.register`` refuses a
second registration under a name).
"""

from __future__ import annotations

VALID_ROLES = ("peer", "orderer", "client")


class Identity:
    """A node's identity: immutable and slotted (56 B; built nodes only).

    Attributes:
        name: globally unique node name (e.g. ``"peer-12"``).
        organization: MSP ID of the owning organization.
        role: one of ``peer``, ``orderer``, ``client``.
    """

    __slots__ = ("name", "organization", "role")

    def __init__(self, name: str, organization: str, role: str) -> None:
        if role not in VALID_ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {VALID_ROLES}")
        for slot, value in zip(self.__slots__, (name, organization, role)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Identity is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Identity, (self.name, self.organization, self.role))

    def __repr__(self) -> str:
        return f"Identity(name={self.name!r}, organization={self.organization!r}, role={self.role!r})"
