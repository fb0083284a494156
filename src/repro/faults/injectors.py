"""Concrete fault injectors over the network and peers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.gossip.messages import BlockPush, PushDigest
from repro.net.message import Message
from repro.net.network import Network
from repro.simulation.random import RandomStreams


class PerSourceStreams:
    """Lazily keyed per-source RNG streams: ``<prefix>:<src>``.

    The sharding determinism contract (docs/sharding.md) requires every
    random draw to be keyed to a single node so the draw sequence depends
    only on that node's own event order. Drop-filter draws happen at send
    time on the sender's shard, so keying them by *source* makes any
    probabilistic injector shard-safe. The per-source ``Random`` objects
    are cached here so the hot predicate path costs one dict probe.
    """

    def __init__(self, streams: RandomStreams, prefix: str) -> None:
        self._streams = streams
        self._prefix = prefix
        self._cache: Dict[str, random.Random] = {}

    def __call__(self, src: str) -> random.Random:
        rng = self._cache.get(src)
        if rng is None:
            rng = self._cache[src] = self._streams.stream(f"{self._prefix}:{src}")
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


class _ComposableDropFilter:
    """Chains several drop predicates on one network.

    Order contract: predicates are evaluated in **installation order**
    (a pre-existing plain-callable filter wrapped by :func:`_drop_filter_for`
    keeps its original first slot), and evaluation short-circuits on the
    first predicate that drops — so when two injectors would both drop a
    message, only the earliest-installed one counts it. ``add`` is
    idempotent by identity: re-arming the same injector never double-wraps
    nor duplicates a predicate, so its drop counter stays single-counted.

    Visibility: the chain is the network's drop filter only while at least
    one predicate can drop — one whose ``owner`` is active, or one without
    an owner (an adopted plain callable). An inactive predicate returns
    ``False`` before drawing or counting anything, so hiding a chain of
    them changes no decision, no counter and no stream position; it only
    spares the network the guard stage for every copy sent outside the
    fault windows. The network's ``_drop_chain`` attribute keeps the
    hidden chain findable.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self._predicates: List[Callable[[str, str, Message], bool]] = []
        self._owners: List[Optional["DropFault"]] = []
        network._drop_chain = self

    def add(
        self,
        predicate: Callable[[str, str, Message], bool],
        owner: Optional["DropFault"] = None,
    ) -> None:
        if predicate is self:
            return  # never chain a composable into itself
        if predicate not in self._predicates:
            self._predicates.append(predicate)
            self._owners.append(owner)
        self.refresh()

    def refresh(self) -> None:
        """Show the chain to the network iff some predicate can drop."""
        live = any(owner is None or owner.active for owner in self._owners)
        self.network.set_drop_filter(self if live else None)

    def __call__(self, src: str, dst: str, message: Message) -> bool:
        for predicate in self._predicates:
            if predicate(src, dst, message):
                return True
        return False


def _drop_filter_for(network: Network) -> _ComposableDropFilter:
    """The network's composable drop filter, creating one if needed.

    A plain callable already installed via ``set_drop_filter`` is adopted
    into the chain (first, when it was there before the chain); repeated
    calls return the same composable, so arming any number of injectors —
    or the same injector twice — composes idempotently.
    """
    composable = getattr(network, "_drop_chain", None)
    if composable is None:
        composable = _ComposableDropFilter(network)
    existing = getattr(network, "_drop_filter", None)
    if existing is not None:
        composable.add(existing)
    return composable


class DropFault:
    """What every drop-filter injector shares: a ``_predicate`` armed on
    the network's chain, a ``dropped`` counter and an ``active`` flag the
    chain watches (:meth:`_ComposableDropFilter.refresh`).

    Subclasses alias :meth:`deactivate` under the name their fault reads
    best with (``stop``, ``heal``, ``restore``, ``release``).
    """

    def __init__(self, network: Network, active: bool = True) -> None:
        self.dropped = 0
        self._network = network
        self._chains: List[_ComposableDropFilter] = []
        self._active = active
        self.arm()

    def arm(self, network: Optional[Network] = None) -> None:
        """(Re-)install the predicate; idempotent on the same network."""
        chain = _drop_filter_for(network or self._network)
        if chain not in self._chains:
            self._chains.append(chain)
        chain.add(self._predicate, self)

    @property
    def active(self) -> bool:
        return self._active

    @active.setter
    def active(self, active: bool) -> None:
        self._active = active
        for chain in self._chains:
            chain.refresh()

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        raise NotImplementedError


class SilentPeerFault(DropFault):
    """Free-riding peers: they take blocks but contribute nothing.

    Models the mildest §VII adversary: the peers drop all *outgoing*
    dissemination work — push digests and unsolicited block forwards — but
    still fetch blocks for themselves (their own ``PushRequest`` traffic
    passes: an adversary wants the ledger too) and, never having
    advertised anything, are never asked to serve. The epidemic merely
    loses their forwarding capacity.

    Pull/recovery serving is left intact: this adversary avoids detection.
    """

    def __init__(
        self, network: Network, silent_peers: Iterable[str], active: bool = True
    ) -> None:
        self.silent: Set[str] = set(silent_peers)
        super().__init__(network, active)

    stop = DropFault.deactivate

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        if not self._active or src not in self.silent:
            return False
        is_forward_work = isinstance(message, PushDigest) or (
            isinstance(message, BlockPush) and not message.requested
        )
        if is_forward_work:
            self.dropped += 1
            return True
        return False


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

    stop = DropFault.deactivate

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        if self._active and src in self.teasing and isinstance(message, BlockPush):
            self.dropped += 1
            return True
        return False


class PartitionFault(DropFault):
    """A network partition: traffic crossing island boundaries is dropped.

    ``islands`` are disjoint groups of node names; every node not listed
    in any island forms the implicit *mainland* group. While active, a
    message is dropped iff its endpoints sit in different groups — the
    drop is symmetric by construction (group inequality is), traffic
    within a group (including the mainland) is untouched, and
    :meth:`heal` restores full connectivity for every message sent after
    the heal instant. In-flight messages that already passed the drop
    filter are delivered normally; messages sent during the partition are
    gone for good (TCP connections to an unreachable host eventually
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

    heal = DropFault.deactivate

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        if not self._active:
            return False
        group_of = self._group_of
        if group_of.get(src, self._MAINLAND) != group_of.get(dst, self._MAINLAND):
            self.dropped += 1
            return True
        return False


class LinkDegradeFault(DropFault):
    """Random loss on a selected set of links while active.

    Models flaky long-haul links: every message whose ``(src, dst)`` pair
    passes ``link_filter`` (default: all links) is dropped with
    probability ``loss_rate`` while the fault is active.

    ``rng`` accepts either a :class:`RandomStreams` registry — loss draws
    then come from dedicated **per-source** streams
    (``<stream_prefix>:<src>``, default ``faults:degrade:<src>``), which
    keeps every draw keyed to the sending node and therefore composes
    with process sharding (docs/sharding.md) — or a plain
    :class:`random.Random` for a single shared stream (legacy form: still
    deterministic single-process, but NOT shard-safe, since a partition
    cannot preserve the global consumption order).
    """

    def __init__(
        self,
        network: Network,
        loss_rate: float,
        rng: Union[RandomStreams, random.Random],
        link_filter: Optional[Callable[[str, str], bool]] = None,
        active: bool = True,
        stream_prefix: str = "faults:degrade",
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        if hasattr(rng, "stream"):
            per_source = PerSourceStreams(rng, stream_prefix)
        else:
            def per_source(src: str, _rng: random.Random = rng) -> random.Random:
                return _rng
        self._rng_for = per_source
        self._link_filter = link_filter
        super().__init__(network, active)

    restore = DropFault.deactivate

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        if not self._active or self.loss_rate <= 0.0:
            return False
        link_filter = self._link_filter
        if link_filter is not None and not link_filter(src, dst):
            return False
        if self._rng_for(src).random() < self.loss_rate:
            self.dropped += 1
            return True
        return False


class PacketLossFault(DropFault):
    """Uniform random message loss at a configured rate."""

    def __init__(self, network: Network, loss_rate: float, rng: random.Random) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = rng
        super().__init__(network)

    def _predicate(self, src: str, dst: str, message: Message) -> bool:
        if self._active and self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            self.dropped += 1
            return True
        return False
