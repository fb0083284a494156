"""Read/write sets produced by chaincode simulation.

The read set pairs each accessed key with the version observed at simulation
time; the write set pairs written keys with their new values. Validation-time
conflicts (paper §II-C) are exactly read-set version mismatches against the
committed state at the validating peer.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.crypto.hashing import hash_fields
from repro.ledger.kvstore import Version


class ReadWriteSet:
    """The effect summary of one simulated chaincode execution, frozen.

    ``reads`` holds ``(key, Version)`` pairs and ``writes`` ``(key, value)``
    pairs, one per key, in recording order (the chaincode stub records into
    dicts and hands them over as pairs). The digest is computed here, once.
    """

    __slots__ = ("reads", "writes", "_digest")

    def __init__(
        self,
        reads: Tuple[Tuple[str, Version], ...] = (),
        writes: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        self.reads = reads
        self.writes = writes
        parts = []
        # Keys are unique, so sorting the pairs sorts them by key.
        for key, version in sorted(reads):
            parts.extend(("r", key, version.block_number, version.tx_index))
        for key, value in sorted(writes):
            parts.extend(("w", key, repr(value)))
        self._digest = hash_fields(*parts)

    def digest(self) -> str:
        """Canonical digest used for endorsement comparison.

        Two endorsers that simulated over the same state produce identical
        digests; a proposal-time conflict (paper §II-C) is a digest mismatch
        between endorsements.
        """
        return self._digest

    def conflicts_with_state(self, get_version: Callable[[str], Version]) -> bool:
        """True if any read version differs from the committed version.

        Args:
            get_version: callable ``key -> Version`` for the committed state.
        """
        return any(get_version(key) != version for key, version in self.reads)
