"""Versioned key/value store (Fabric's world state).

Fabric materializes the result of all valid transactions in a key/value
store where every key carries the version — (block number, transaction
index) — of the transaction that last wrote it. Endorsers record versions
in read sets; validation compares them against the committed state (MVCC).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple


class Version(NamedTuple):
    """Fabric key version: the coordinates of the writing transaction.

    A tuple, so versions compare, order and hash by value."""

    block_number: int
    tx_index: int


# Version of keys that were never written (reads of absent keys).
NIL_VERSION = Version(-1, -1)


class VersionedValue(NamedTuple):
    """A value and the version of the write that produced it."""

    value: Any
    version: Version


class KeyValueStore:
    """The world state of one peer.

    Only *valid* transactions write here, in commit order, so the store is a
    deterministic function of the blockchain prefix the peer has validated.

    ``state_tag`` names the contents, so that two stores with equal tags
    hold equal entries: ``""`` for an empty store; a token handed out by
    :func:`repro.fabric.validation.validate_block`, which every store that
    reaches the same state through the same validations shares; and None
    — equal to no tag — once anything else has written to the store.
    """

    __slots__ = ("_data", "writes_applied", "state_tag")

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        self.writes_applied = 0
        self.state_tag: object = ""

    def get(self, key: str) -> Optional[VersionedValue]:
        """Value + version for ``key``, or None if never written."""
        return self._data.get(key)

    def get_value(self, key: str, default: Any = None) -> Any:
        entry = self._data.get(key)
        return default if entry is None else entry.value

    def get_version(self, key: str) -> Version:
        """Committed version of ``key``; NIL_VERSION if absent."""
        entry = self._data.get(key)
        return NIL_VERSION if entry is None else entry.version

    def put(self, key: str, value: Any, version: Version) -> None:
        """Apply one committed write."""
        self._data[key] = VersionedValue(value, version)
        self.writes_applied += 1
        self.state_tag = None

    def apply_writes(self, writes: Iterable[Tuple[str, Any]], version: Version) -> None:
        """Apply a validated transaction's ``(key, value)`` writes atomically."""
        for key, value in writes:
            self.put(key, value, version)

    def apply_block(self, entries: Mapping[str, VersionedValue], puts: int, tag: object) -> None:
        """Apply a validated block's net writes and take its state tag.

        ``entries`` maps each key the block's valid transactions wrote to
        the (shared, frozen) entry its last writer left; ``puts`` is the
        number of individual writes that stands for in ``writes_applied``.
        """
        self._data.update(entries)
        self.writes_applied += puts
        self.state_tag = tag

    def __getstate__(self) -> Tuple[None, Dict[str, Any]]:
        # A copy keeps the data but leaves the lineage of validations its
        # tag stands for; only "empty" means the same everywhere. (No
        # instance dict, so the state is all slots.)
        tag = self.state_tag
        return None, {
            "_data": self._data,
            "writes_applied": self.writes_applied,
            "state_tag": tag if tag == "" else None,
        }

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        return iter(self._data.items())

    def snapshot_values(self) -> Dict[str, Any]:
        """Plain ``{key: value}`` view (used by experiment result checks)."""
        return {key: entry.value for key, entry in self._data.items()}
