"""Crypto substrate: hashing and node identities.

Fabric links blocks by SHA-256 hash chaining and certifies every node
through a membership service provider (MSP). The simulation keeps what its
metrics depend on: real SHA-256 digests over blocks and read/write sets,
and an immutable identity (name, organization, role) per node, which the
endorsement policy checks. Nothing is signed or verified: no measured
quantity (dissemination latency, bandwidth, invalidated transactions)
depends on a signature check, and an endorsement's signature is carried as
its wire size only.
"""

from repro.crypto.hashing import hash_fields
from repro.crypto.identity import Identity

__all__ = [
    "Identity",
    "hash_fields",
]
