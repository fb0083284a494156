"""Concrete fault injectors over the network and peers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Set

from repro.gossip.messages import BlockPush
from repro.net.message import Message
from repro.net.network import Network
from repro.simulation.random import RandomStreams, Uniform


class PerSourceStreams:
    """Lazily keyed per-source uniform sources: ``<prefix>:<src>``.

    The sharding determinism contract (docs/sharding.md) requires every
    random draw to be keyed to a single node so the draw sequence depends
    only on that node's own event order. Drop draws happen at send time
    on the sender's shard, so keying them by *source* makes any
    probabilistic injector shard-safe. The per-source
    :class:`~repro.simulation.random.Uniform` sources are cached here so
    the hot predicate path costs one dict probe; a caller draws
    ``rng_for(src).random()``, which reads the source's current draw,
    live once promoted.
    """

    def __init__(self, streams: RandomStreams, prefix: str) -> None:
        self._streams = streams
        self._prefix = prefix
        self._cache: Dict[str, Uniform] = {}

    def __call__(self, src: str) -> Uniform:
        rng = self._cache.get(src)
        if rng is None:
            rng = self._cache[src] = self._streams.uniform(f"{self._prefix}:{src}")
        return rng


@dataclass
class CrashSchedule:
    """Crash a peer at ``crash_at`` and recover it at ``recover_at``.

    Usage::

        CrashSchedule(peer, crash_at=30.0, recover_at=90.0).arm(sim)

    After recovery the peer's ledger is behind; the recovery (anti-entropy)
    component fetches the missing blocks in batches.
    """

    peer: object  # repro.fabric.peer.Peer; duck-typed to avoid the import cycle
    crash_at: float
    recover_at: Optional[float] = None

    def arm(self, sim) -> None:
        if self.recover_at is not None and self.recover_at <= self.crash_at:
            raise ValueError("recover_at must be after crash_at")
        sim.schedule_at(self.crash_at, self.peer.crash)
        if self.recover_at is not None:
            sim.schedule_at(self.recover_at, self.peer.recover)


class DropFault:
    """A fault the network asks, per copy, whether it drops the copy.

    Constructing one arms it on ``network``'s drop stage
    (:meth:`Network.arm_drop`), after the faults armed before it. While
    ``active``, the network calls :meth:`drops` for every copy the faults
    armed earlier let pass, and counts in ``dropped`` the copies it drops.
    Flipping ``active`` tells the network, which runs its drop stage only
    while some armed fault is active; :meth:`activate` and
    :meth:`deactivate` open and end a fault's window.
    """

    def __init__(self, network: Network, active: bool = True) -> None:
        self.dropped = 0
        self._network = network
        self._active = active
        network.arm_drop(self)

    @property
    def active(self) -> bool:
        return self._active

    @active.setter
    def active(self, active: bool) -> None:
        self._active = active
        self._network.refresh_drops()

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def drops(self, src: str, dst: str, message: Message) -> bool:
        """Whether this fault, active, drops the copy ``src -> dst``."""
        raise NotImplementedError


class TeasingPeerFault(DropFault):
    """Withholding peers that advertise and then stonewall.

    The nastiest §VII adversary against the enhanced module: it forwards
    push *digests* normally (so it looks like a well-behaved peer and
    attracts requests) but never delivers a requested block. An honest
    peer whose single in-flight request landed on a teaser stalls until
    the request-retry timeout or the recovery component rescues it —
    quantifying the countermeasure gap the paper calls out as future work.
    """

    def __init__(
        self, network: Network, teasing_peers: Iterable[str], active: bool = True
    ) -> None:
        self.teasing: Set[str] = set(teasing_peers)
        super().__init__(network, active)

    def drops(self, src: str, dst: str, message: Message) -> bool:
        return src in self.teasing and isinstance(message, BlockPush)


class PartitionFault(DropFault):
    """A network partition: traffic crossing island boundaries is dropped.

    ``islands`` are disjoint groups of node names; every node not listed
    in any island forms the implicit *mainland* group. While active, a
    message is dropped iff its endpoints sit in different groups — the
    drop is symmetric by construction (group inequality is), traffic
    within a group (including the mainland) is untouched, and
    :meth:`deactivate` restores full connectivity for every message sent
    after the heal instant. In-flight messages that already passed the
    drop stage are delivered normally; messages sent during the partition
    are gone for good (TCP connections to an unreachable host eventually
    fail), which is exactly what the recovery component exists to repair.
    """

    _MAINLAND = -1

    def __init__(
        self,
        network: Network,
        islands: Sequence[Iterable[str]],
        active: bool = True,
    ) -> None:
        self._group_of = {}
        for index, island in enumerate(islands):
            for name in island:
                if name in self._group_of:
                    raise ValueError(f"node {name!r} listed in two partition islands")
                self._group_of[name] = index
        super().__init__(network, active)

    def drops(self, src: str, dst: str, message: Message) -> bool:
        group_of = self._group_of
        return group_of.get(src, self._MAINLAND) != group_of.get(dst, self._MAINLAND)


class LinkDegradeFault(DropFault):
    """Random loss on a selected set of links while active.

    Every message whose ``(src, dst)`` pair passes ``link_filter``
    (default: all links) is dropped with probability ``loss_rate``. The
    filter may be symmetric (a degraded region pair) or one-way (a flaky
    link: acks flow, payloads vanish). Loss draws come from dedicated
    **per-source** streams ``<stream_prefix>:<src>`` (``faults:degrade``
    for a degraded link, ``faults:flaky`` for a flaky one), one draw per
    copy the filter selects, which keeps every draw keyed to the sending
    node and therefore composes with process sharding (docs/sharding.md).
    """

    def __init__(
        self,
        network: Network,
        loss_rate: float,
        streams: RandomStreams,
        link_filter: Optional[Callable[[str, str], bool]] = None,
        active: bool = True,
        stream_prefix: str = "faults:degrade",
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng_for = PerSourceStreams(streams, stream_prefix)
        self._link_filter = link_filter
        super().__init__(network, active)

    def drops(self, src: str, dst: str, message: Message) -> bool:
        if self.loss_rate <= 0.0:
            return False
        link_filter = self._link_filter
        if link_filter is not None and not link_filter(src, dst):
            return False
        return self._rng_for(src).random() < self.loss_rate
