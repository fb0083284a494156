"""SHA-256 hashing helpers used for block chaining and digests."""

from __future__ import annotations

import hashlib
from typing import Any, Iterable


def hash_fields(*fields: Any) -> str:
    """Hash a tuple of primitive fields with unambiguous framing.

    Each field is rendered with its type tag and length so that
    ``hash_fields("ab", "c")`` differs from ``hash_fields("a", "bc")``.
    """
    hasher = hashlib.sha256()
    for value in fields:
        encoded = _encode(value)
        hasher.update(type(value).__name__.encode("ascii"))
        hasher.update(len(encoded).to_bytes(8, "big"))
        hasher.update(encoded)
    return hasher.hexdigest()


def hash_many(items: Iterable[str]) -> str:
    """Order-sensitive hash of a sequence of hex digests (Merkle-ish root)."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(item.encode("ascii"))
    return hasher.hexdigest()


def _encode(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, bool):
        return b"\x01" if value else b"\x00"
    if isinstance(value, int):
        return value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
    if isinstance(value, float):
        return repr(value).encode("ascii")
    if value is None:
        return b""
    raise TypeError(f"cannot hash field of type {type(value).__name__}")
