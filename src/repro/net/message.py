"""Base message type for everything that crosses the simulated wire.

Bandwidth reproduction (paper Figs. 6, 9, 10, 11, 14) only needs faithful
message *sizes*: 160 KB data blocks dominate, digests and metadata are small.
Every concrete message declares its payload size; the network adds a fixed
per-message envelope overhead (headers, gRPC/protobuf framing, TLS record
overhead) configured in :class:`repro.net.network.NetworkConfig`.
"""

from __future__ import annotations

from typing import Any


class Message:
    """A message in flight between two processes.

    Subclasses override :meth:`payload_size` (bytes). ``kind`` defaults to
    the class name and is the key under which the traffic monitor
    aggregates byte counts; it is materialized as a plain class attribute
    on each subclass (unless the subclass defines its own ``kind``), so the
    per-send monitor lookup costs one attribute read instead of a property
    call computing ``type(...)``.
    """

    __slots__ = ()  # subclasses that declare slots get no instance __dict__

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "kind" not in cls.__dict__:
            cls.kind = cls.__name__

    @property
    def kind(self) -> str:
        """Aggregation key for traffic accounting."""
        return type(self).__name__

    def payload_size(self) -> int:
        """Payload size in bytes, excluding the network envelope."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.payload_size()}B>"


class RawMessage(Message):
    """A generic message with an explicit size; useful in tests and for
    background traffic whose exact schema does not matter."""

    __slots__ = ("_size", "_kind", "body")

    def __init__(self, size: int, kind: str = "RawMessage", body: Any = None) -> None:
        super().__init__()
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        self._size = size
        self._kind = kind
        self.body = body

    @property
    def kind(self) -> str:
        return self._kind

    def payload_size(self) -> int:
        return self._size
