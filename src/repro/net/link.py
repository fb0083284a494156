"""Per-link bandwidth + bottleneck-queue physics (:class:`LinkModel`).

Every :class:`~repro.net.latency.LatencyModel` answers "how long does a
bit take to cross the wire"; it is payload- and load-oblivious. A
:class:`LinkModel` adds the part of Internet physics that makes push vs
pull diverge at production block sizes: a finite-capacity sender uplink
where packets *serialize* (delay = size / bandwidth), *queue* behind each
other when the fanout outruns the drain rate, and get *dropped* — either
because the bounded queue is full (tail drop) or because a CoDel-style
AQM sheds load once standing queueing delay persists past its target.

The model is a frozen config value; the mutable per-source queue state
and the hot-path admission logic live in the engine-core kernel
:func:`repro.simulation._core.kernels.link_enqueue`, driven by
:class:`~repro.net.network.Network`. Probabilistic CoDel drops draw from
the per-source ``network:queue:<src>`` RNG stream (exactly one uniform
per packet, and only while the link is in dropping state) so runs
compose bit-for-bit with process sharding — see docs/networking.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = [
    "CoDelConfig",
    "LinkModel",
    "merge_queue_accounting",
    "new_queue_stats",
    "summarize_queue_accounting",
]

# Indexes into the per-source accounting list (floats throughout so the
# sharded merge sums element-wise without type juggling).
_ACC_PACKETS = 0
_ACC_TAIL = 1
_ACC_CODEL = 2
_ACC_DELAY = 3
_ACC_DELAY_MAX = 4
_ACC_BYTES = 5
_ACC_LEN = 6


@dataclass(frozen=True)
class CoDelConfig:
    """CoDel-style AQM knobs (see RFC 8289 for the terminology).

    ``target`` is the acceptable standing queueing delay; once sojourn
    times stay at or above it for ``interval`` seconds the link starts
    dropping, with per-packet probability ramping by ``1/ramp`` per drop
    up to ``max_drop_probability``.
    """

    target: float = 0.005
    interval: float = 0.100
    max_drop_probability: float = 0.9
    ramp: float = 8.0

    def __post_init__(self) -> None:
        if not self.target > 0.0:  # `not >` also rejects NaN
            raise ValueError(f"CoDel target must be > 0, got {self.target}")
        if not self.interval > 0.0:
            raise ValueError(f"CoDel interval must be > 0, got {self.interval}")
        if not 0.0 < self.max_drop_probability <= 1.0:
            raise ValueError(
                f"CoDel max_drop_probability must be in (0, 1], got {self.max_drop_probability}"
            )
        if not self.ramp >= 1.0:
            raise ValueError(f"CoDel ramp must be >= 1, got {self.ramp}")


@dataclass(frozen=True)
class LinkModel:
    """Sender-uplink bottleneck: capacity, bounded queue, optional AQM.

    ``bandwidth`` is the bottleneck drain rate in bytes/second;
    ``queue_bytes`` bounds the queue (a packet whose queueing delay would
    exceed ``queue_bytes / bandwidth`` seconds is tail-dropped). The
    defaults — infinite bandwidth, unbounded queue, no AQM — make the
    model a provable no-op: zero added delay, zero drops, zero RNG
    consumed (:attr:`is_noop`), which is what keeps pre-link goldens
    bit-for-bit identical.
    """

    bandwidth: float = math.inf
    queue_bytes: float = math.inf
    codel: Optional[CoDelConfig] = None

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:  # `not >` also rejects NaN
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth}")
        if not self.queue_bytes > 0.0:
            raise ValueError(f"link queue_bytes must be > 0, got {self.queue_bytes}")
        if self.codel is not None and not isinstance(self.codel, CoDelConfig):
            raise TypeError(f"codel must be a CoDelConfig, got {type(self.codel).__name__}")

    @property
    def is_noop(self) -> bool:
        """True when the link cannot affect any run: infinite bandwidth
        means zero serialization delay, hence zero queueing delay, hence
        the queue never fills and CoDel never arms — regardless of the
        other knobs. ``Network`` disarms a no-op link entirely so even
        internal event counts stay identical."""
        return math.isinf(self.bandwidth)

    def queue_limit_seconds(self) -> float:
        """Queue bound expressed in seconds of drain time."""
        if math.isinf(self.queue_bytes) or math.isinf(self.bandwidth):
            return math.inf
        return self.queue_bytes / self.bandwidth

    def transfer_time(self, size: float) -> float:
        """Serialization delay for ``size`` bytes."""
        if math.isinf(self.bandwidth):
            return 0.0
        return size / self.bandwidth

    def kernel_args(self) -> "tuple[float, float, float, float, float]":
        """``(queue_limit, target, interval, max_p, ramp)`` for
        :func:`repro.simulation._core.kernels.link_enqueue`; ``target <= 0``
        encodes "AQM disabled"."""
        codel = self.codel
        if codel is None:
            return (self.queue_limit_seconds(), 0.0, 0.0, 1.0, 1.0)
        return (
            self.queue_limit_seconds(),
            codel.target,
            codel.interval,
            codel.max_drop_probability,
            codel.ramp,
        )


def new_queue_stats() -> List[float]:
    """Fresh per-source accounting record: ``[packets, tail_drops,
    codel_drops, queue_delay_sum, queue_delay_max, queued_bytes]``."""
    return [0.0] * _ACC_LEN


def merge_queue_accounting(
    parts: Iterable[Dict[str, List[float]]],
) -> Dict[str, List[float]]:
    """Union per-source accounting dicts from shard workers.

    Each source is owned by exactly one shard, so this is normally a
    disjoint union; overlapping sources (defensive) merge element-wise
    with ``max`` for the delay-max slot.
    """
    merged: Dict[str, List[float]] = {}
    for part in parts:
        for src, stats in part.items():
            into = merged.get(src)
            if into is None:
                merged[src] = list(stats)
            else:
                for index in range(_ACC_LEN):
                    if index == _ACC_DELAY_MAX:
                        if stats[index] > into[index]:
                            into[index] = stats[index]
                    else:
                        into[index] += stats[index]
    return merged


def summarize_queue_accounting(per_source: Dict[str, List[float]]) -> Dict[str, object]:
    """Collapse per-source accounting into the snapshot ``link`` section.

    Sums iterate sources in sorted order so single-process and merged
    sharded runs produce bit-for-bit identical floats.
    """
    packets = 0
    tail = 0
    codel = 0
    delay_sum = 0.0
    delay_max = 0.0
    queued_bytes = 0
    for src in sorted(per_source):
        stats = per_source[src]
        packets += int(stats[_ACC_PACKETS])
        tail += int(stats[_ACC_TAIL])
        codel += int(stats[_ACC_CODEL])
        delay_sum += stats[_ACC_DELAY]
        if stats[_ACC_DELAY_MAX] > delay_max:
            delay_max = stats[_ACC_DELAY_MAX]
        queued_bytes += int(stats[_ACC_BYTES])
    return {
        "packets": packets,
        "dropped_tail": tail,
        "dropped_codel": codel,
        "queue_delay_total": delay_sum,
        "queue_delay_max": delay_max,
        "queued_bytes": queued_bytes,
    }
