"""Gossip wire messages with faithful sizes.

Data blocks (~160 KB) dominate traffic; digests and metadata are tens of
bytes plus the network envelope. Sizes follow Fabric's protobuf encodings
closely enough for the bandwidth reproduction: a block digest is a block
number plus a hash; state info carries a height and a channel id.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.message import Message
from repro.ledger.block import Block

DIGEST_ENTRY_SIZE = 48  # block number + truncated hash + framing
STATE_INFO_SIZE = 96  # height, channel MAC, timestamp, identity
_PUSH_DIGEST_PAYLOAD = DIGEST_ENTRY_SIZE + 8  # + counter field


class BlockPush(Message):
    """A full data block pushed to a peer.

    ``counter`` is the infect-upon-contagion hop counter of the enhanced
    protocol; the original protocol ignores it (always 0). ``requested``
    distinguishes digest-solicited transfers from unsolicited forwards —
    the fault-injection layer uses it to model adversaries that withhold
    forwards but still answer explicit requests.
    """

    __slots__ = ("block", "counter", "requested", "_payload")

    def __init__(self, block: Block, counter: int = 0, requested: bool = False) -> None:
        super().__init__()
        self.block = block
        self.counter = counter
        self.requested = requested
        # Cached at construction: one instance is shared across a fanout,
        # so the size lookup runs once instead of once per target.
        self._payload = block.size_bytes() + 8  # block + counter field

    def payload_size(self) -> int:
        return self._payload


class PushDigest(Message):
    """Enhanced push: announce availability of ``(block, counter)``."""

    __slots__ = ("block_number", "block_hash", "counter")

    def __init__(self, block_number: int, block_hash: str, counter: int) -> None:
        super().__init__()
        self.block_number = block_number
        self.block_hash = block_hash
        self.counter = counter

    def payload_size(self) -> int:
        return _PUSH_DIGEST_PAYLOAD


class PushRequest(Message):
    """Enhanced push: ask the digest sender for the full block."""

    __slots__ = ("block_number", "counter")

    def __init__(self, block_number: int, counter: int) -> None:
        super().__init__()
        self.block_number = block_number
        self.counter = counter

    def payload_size(self) -> int:
        return 16


class PullDigestRequest(Message):
    """Original pull, phase 1: ask a peer for digests of recent blocks."""

    __slots__ = ()

    def payload_size(self) -> int:
        return 16


class PullDigestResponse(Message):
    """Original pull, phase 2: the block numbers the responder holds."""

    __slots__ = ("block_numbers",)

    def __init__(self, block_numbers: Sequence[int]) -> None:
        super().__init__()
        self.block_numbers = tuple(block_numbers)

    def payload_size(self) -> int:
        return 16 + DIGEST_ENTRY_SIZE * len(self.block_numbers)


class PullBlockRequest(Message):
    """Original pull, phase 3: request the blocks the requester lacks."""

    __slots__ = ("block_numbers",)

    def __init__(self, block_numbers: Sequence[int]) -> None:
        super().__init__()
        self.block_numbers = tuple(block_numbers)

    def payload_size(self) -> int:
        return 16 + 8 * len(self.block_numbers)


class PullBlockResponse(Message):
    """Original pull, phase 4: the requested full blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[Block]) -> None:
        super().__init__()
        self.blocks = tuple(blocks)

    def payload_size(self) -> int:
        return 16 + sum(block.size_bytes() for block in self.blocks)


class StateInfo(Message):
    """Metadata gossip: the sender's ledger height (drives recovery)."""

    __slots__ = ("height",)

    def __init__(self, height: int) -> None:
        super().__init__()
        self.height = height

    def payload_size(self) -> int:
        return STATE_INFO_SIZE


class RecoveryRequest(Message):
    """Anti-entropy: request consecutive blocks [from_number, to_number)."""

    __slots__ = ("from_number", "to_number")

    def __init__(self, from_number: int, to_number: int) -> None:
        super().__init__()
        if to_number < from_number:
            raise ValueError(f"invalid recovery range [{from_number}, {to_number})")
        self.from_number = from_number
        self.to_number = to_number

    def payload_size(self) -> int:
        return 24


class RecoveryResponse(Message):
    """Anti-entropy: a batch of consecutive full blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[Block]) -> None:
        super().__init__()
        self.blocks = tuple(blocks)

    def payload_size(self) -> int:
        return 16 + sum(block.size_bytes() for block in self.blocks)


class MembershipAlive(Message):
    """Background membership/metadata traffic (calibrated idle floor)."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size

    def payload_size(self) -> int:
        return self.size
