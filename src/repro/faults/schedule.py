"""Declarative fault schedules, compiled onto a built deployment.

A scenario (see :mod:`repro.scenarios`) declares *what* goes wrong and
*when* — crashes, partitions, degraded links, byzantine adversaries,
membership churn — as frozen event records; this module turns those
records into concrete injectors and simulator timer arms against a
freshly built :class:`~repro.experiments.builders.FabricNetwork`.
Declarations are pure data (hashable, picklable, no references to live
objects), so they can sit inside frozen scenario specs and cross process
boundaries in sweep and shard workers.

Name resolution happens at compile time:

* crash/adversary/churn events name peers explicitly (``peers``) or by a
  slice of the sorted regular-peer list (``regular_slice`` — convenient
  for "the last five peers"); churn and adversary events refuse leaders;
* partition islands list *regions* (expanded to every node the network
  placed there, see ``NetworkConfig.regions``) and/or peer names; nodes
  in no island form the implicit mainland group;
* degrade events select links by region: by default every inter-region
  link, or just the pair named in ``between``; flaky-link events select
  **one direction** of one region pair. Nodes in ``protect`` (default:
  the orderer, whose atomic-broadcast connections are reliable and
  flow-controlled in Fabric) are exempt.

Sharded compilation: a shard worker's network holds only the peers it
executes (``net.peers``), while names resolve against the whole membership
(``net.peer_names``, ``net.network.regions``). Global simulation state —
disconnect flags, drop faults, the departed-name set — is applied on
every shard at the same instants; per-peer state (crash/recover, views,
timer arms at join, shutdown at leave) exists and changes only on the
owner shard. Every injector draws either no randomness or per-source
streams, so the compiled run is bit-for-bit identical at any shard count
(docs/faults.md has the per-injector contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.checks import require_finite
from repro.faults.adversaries import DigestLiarFault, EclipseFault, LazyForwarderFault
from repro.faults.churn import ChurnController
from repro.faults.injectors import (
    CrashSchedule,
    DropFault,
    LinkDegradeFault,
    PartitionFault,
    TeasingPeerFault,
)


def _require_times(event, *optional: str) -> None:
    """Refuse a NaN, infinite or negative ``at``, or such a value in any
    of the ``optional`` time fields that is set, by field name."""
    require_finite(event, "at", *(name for name in optional if getattr(event, name) is not None))


@dataclass(frozen=True)
class CrashEvent:
    """Crash a set of peers at ``at``; optionally recover them later.

    Exactly one of ``peers`` (explicit names) or ``regular_slice`` (a
    ``(start, stop)`` slice over the sorted non-leader peer names) must
    select at least one peer.
    """

    at: float
    recover_at: Optional[float] = None
    peers: Tuple[str, ...] = ()
    regular_slice: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        _require_times(self, "recover_at")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must be after the crash time")
        if bool(self.peers) == (self.regular_slice is not None):
            raise ValueError("select peers via exactly one of peers/regular_slice")


@dataclass(frozen=True)
class PartitionEvent:
    """Split the network into islands at ``at``; optionally heal later.

    Island entries are region names (expanded via the network's node
    placement) or peer names; unlisted nodes form the implicit mainland.
    """

    at: float
    heal_at: Optional[float] = None
    islands: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        _require_times(self, "heal_at")
        if self.heal_at is not None and self.heal_at <= self.at:
            raise ValueError("heal_at must be after the partition time")
        if not self.islands:
            raise ValueError("a partition needs at least one island")


@dataclass(frozen=True)
class DegradeEvent:
    """Apply random loss to inter-region links at ``at``; restore later.

    ``between`` narrows the loss to one region pair (order-insensitive);
    ``None`` degrades every inter-region link. Links touching a node in
    ``protect`` never drop. Loss draws come from per-source
    ``faults:degrade:<src>`` streams, so degrade faults shard.
    """

    at: float
    restore_at: Optional[float] = None
    loss_rate: float = 0.10
    between: Optional[Tuple[str, str]] = None
    protect: Tuple[str, ...] = ("orderer",)

    def __post_init__(self) -> None:
        _require_times(self, "restore_at")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ValueError("restore_at must be after the degrade time")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.loss_rate}")


ADVERSARY_KINDS = ("silent", "teasing", "lazy", "digest-liar")


@dataclass(frozen=True)
class AdversaryEvent:
    """Turn selected peers byzantine at ``at``; optionally reform them.

    ``kind`` picks the behavior (docs/faults.md): ``"silent"`` and
    ``"teasing"`` are the paper's §VII adversaries; ``"lazy"`` drops
    forwarding work with probability ``drop_prob``; ``"digest-liar"``
    re-advertises digests to ``lie_fanout`` peers and never serves.
    Selection follows the crash-event convention (``peers`` xor
    ``regular_slice``); leaders cannot turn byzantine (the orderer feeds
    them directly, and the simulation's workload entry would vanish).
    """

    kind: str
    at: float = 0.0
    until: Optional[float] = None
    peers: Tuple[str, ...] = ()
    regular_slice: Optional[Tuple[int, int]] = None
    drop_prob: float = 1.0
    lie_fanout: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(
                f"unknown adversary kind {self.kind!r}; known: {ADVERSARY_KINDS}"
            )
        _require_times(self, "until")
        if self.until is not None and self.until <= self.at:
            raise ValueError("until must be after the activation time")
        if bool(self.peers) == (self.regular_slice is not None):
            raise ValueError("select peers via exactly one of peers/regular_slice")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {self.drop_prob}")
        if self.lie_fanout < 0:
            raise ValueError("lie_fanout must be >= 0")


@dataclass(frozen=True)
class EclipseEvent:
    """Attackers monopolize ``victim``'s connectivity at ``at``.

    While active, all traffic between the victim and any non-attacker is
    dropped in both directions (``protect`` is exempt). ``release_at``
    ends the eclipse. Attackers are selected like crash peers.
    """

    victim: str
    at: float = 0.0
    release_at: Optional[float] = None
    attackers: Tuple[str, ...] = ()
    regular_slice: Optional[Tuple[int, int]] = None
    protect: Tuple[str, ...] = ("orderer",)

    def __post_init__(self) -> None:
        if not self.victim:
            raise ValueError("eclipse needs a victim")
        _require_times(self, "release_at")
        if self.release_at is not None and self.release_at <= self.at:
            raise ValueError("release_at must be after the eclipse time")
        if bool(self.attackers) == (self.regular_slice is not None):
            raise ValueError("select attackers via exactly one of attackers/regular_slice")


@dataclass(frozen=True)
class FlakyLinkEvent:
    """Asymmetric loss on one direction of a region pair.

    Messages flowing ``direction[0] -> direction[1]`` drop with
    ``loss_rate`` while active; the reverse direction stays clean. Loss
    draws come from per-source ``faults:flaky:<src>`` streams.
    """

    at: float
    direction: Tuple[str, str] = ()
    restore_at: Optional[float] = None
    loss_rate: float = 0.10
    protect: Tuple[str, ...] = ("orderer",)

    def __post_init__(self) -> None:
        _require_times(self, "restore_at")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ValueError("restore_at must be after the flaky-link time")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.loss_rate}")
        if len(self.direction) != 2 or self.direction[0] == self.direction[1]:
            raise ValueError("direction must name two distinct regions (src, dst)")


@dataclass(frozen=True)
class JoinEvent:
    """Flash-crowd join: the peers become members at ``at``.

    Selected peers are built with the deployment but held out — nobody
    samples them, they run no timers, their endpoints are down — until
    the event fires and they join every live view at runtime. Leaders
    cannot be held out.
    """

    at: float
    peers: Tuple[str, ...] = ()
    regular_slice: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        _require_times(self)
        if self.at <= 0:
            raise ValueError("join time must be > 0 (members from t=0 need no event)")
        if bool(self.peers) == (self.regular_slice is not None):
            raise ValueError("select peers via exactly one of peers/regular_slice")


@dataclass(frozen=True)
class LeaveEvent:
    """Mass departure: the peers leave the membership for good at ``at``."""

    at: float
    peers: Tuple[str, ...] = ()
    regular_slice: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        _require_times(self)
        if bool(self.peers) == (self.regular_slice is not None):
            raise ValueError("select peers via exactly one of peers/regular_slice")


FaultEvent = Union[
    CrashEvent,
    PartitionEvent,
    DegradeEvent,
    AdversaryEvent,
    EclipseEvent,
    FlakyLinkEvent,
    JoinEvent,
    LeaveEvent,
]


@dataclass
class FaultSchedule:
    """The compiled (armed) form of a scenario's fault events.

    ``drops`` holds one drop fault per partition, degrade, adversary,
    eclipse and flaky-link event, in event order, which is also the order
    they are armed on the network's drop stage.
    """

    crashes: List[Tuple[CrashEvent, List[str]]] = field(default_factory=list)
    drops: List[DropFault] = field(default_factory=list)
    churn: List[ChurnController] = field(default_factory=list)

    @property
    def dropped_messages(self) -> int:
        """Messages eaten by the schedule's drop faults."""
        return sum(fault.dropped for fault in self.drops)

    @property
    def peers_joined(self) -> int:
        return sum(controller.peers_joined for controller in self.churn)

    @property
    def peers_departed(self) -> int:
        return sum(controller.peers_departed for controller in self.churn)


def _resolve_names(
    explicit, regular_slice, net, label: str, refuse_leaders: bool = False
) -> List[str]:
    """Expand an explicit-names/``regular_slice`` selection to peer names."""
    if explicit:
        unknown = sorted(set(explicit) - set(net.peer_names))
        if unknown:
            raise ValueError(f"{label} event names unknown peers: {unknown}")
        selected = list(explicit)
    else:
        start, stop = regular_slice
        selected = net.regular_peers()[start:stop]
        if not selected:
            raise ValueError(
                f"regular_slice {regular_slice} selects no peers "
                f"(deployment has {len(net.regular_peers())} regular peers)"
            )
    if refuse_leaders:
        leaders = set(net.leaders.values())
        bad = sorted(set(selected) & leaders)
        if bad:
            raise ValueError(f"{label} event cannot target leaders: {bad}")
    return selected


def _resolve_event_peers(event, net, label: str, refuse_leaders: bool = False) -> List[str]:
    return _resolve_names(
        event.peers, event.regular_slice, net, label, refuse_leaders=refuse_leaders
    )


def _resolve_crash_peers(event: CrashEvent, net) -> List[str]:
    return _resolve_event_peers(event, net, "crash")


def _resolve_islands(event: PartitionEvent, net) -> List[List[str]]:
    regions = net.network.regions
    by_region: Dict[str, List[str]] = {}
    for name, region in regions.items():
        by_region.setdefault(region, []).append(name)
    islands: List[List[str]] = []
    for island in event.islands:
        members: List[str] = []
        for entry in island:
            if entry in by_region:
                members.extend(sorted(by_region[entry]))
            elif entry in net.network:
                members.append(entry)
            else:
                raise ValueError(
                    f"partition island entry {entry!r} is neither a placed "
                    "region nor a known node"
                )
        islands.append(members)
    return islands


def _degrade_link_filter(event: DegradeEvent, net) -> Callable[[str, str], bool]:
    region_of = net.network.regions
    protected = set(event.protect)
    between = frozenset(event.between) if event.between else None

    def crosses(src: str, dst: str) -> bool:
        if src in protected or dst in protected:
            return False
        src_region = region_of.get(src)
        dst_region = region_of.get(dst)
        if src_region is None or dst_region is None or src_region == dst_region:
            return False
        if between is not None and {src_region, dst_region} != between:
            return False
        return True

    return crosses


def _region_nodes(net, region: str, protected: set) -> FrozenSet[str]:
    names = frozenset(
        name
        for name, placed in net.network.regions.items()
        if placed == region and name not in protected
    )
    if not names:
        raise ValueError(f"region {region!r} places no unprotected nodes")
    return names


def _flaky_link_filter(event: FlakyLinkEvent, net) -> Callable[[str, str], bool]:
    """One direction of a region pair: ``direction[0] -> direction[1]``."""
    protected = set(event.protect)
    src_nodes = _region_nodes(net, event.direction[0], protected)
    dst_nodes = _region_nodes(net, event.direction[1], protected)

    def one_way(src: str, dst: str) -> bool:
        return src in src_nodes and dst in dst_nodes

    return one_way


def _arm_window(sim, fault: DropFault, at: float, until: Optional[float]) -> None:
    """Activate ``fault`` at ``at`` (immediately for t<=0), end at ``until``."""
    if at <= 0:
        fault.activate()
    else:
        sim.schedule_at(at, fault.activate)
    if until is not None:
        sim.schedule_at(until, fault.deactivate)


def _build_adversary(event: AdversaryEvent, net) -> DropFault:
    names = _resolve_event_peers(event, net, "adversary", refuse_leaders=True)
    if event.kind == "teasing":
        return TeasingPeerFault(net.network, names, active=False)
    if event.kind in ("silent", "lazy"):
        # A silent peer is a lazy forwarder that drops all its forwarding
        # work, drawing nothing.
        drop_prob = 1.0 if event.kind == "silent" else event.drop_prob
        return LazyForwarderFault(net.network, names, drop_prob, net.streams, active=False)
    return DigestLiarFault(
        net.network,
        net.peers,
        names,
        net.streams,
        lie_fanout=event.lie_fanout,
        active=False,
    )


def compile_fault_schedule(events, net) -> FaultSchedule:
    """Compile declarative ``events`` against ``net`` and arm the timers.

    Crash/recover arms become one-shot simulator events per peer (the
    stop-heavy part — a crash stops every periodic timer — rides the
    timer wheel's O(1) stop via ``Peer.crash``). Drop faults arm on
    the network's drop stage immediately (inactive), in event order, and
    schedule their activation and deactivation flips, so a mid-run flip
    costs two scheduled events regardless of deployment size. Churn
    events hold joiners out now and arm runtime membership flips.

    On a shard worker (a network built with ``owned``) global state
    transitions (disconnect flags, drop faults, departures) are armed
    identically everywhere, while peer lifecycle (crash/recover,
    start-at-join, shutdown-at-leave) is armed for the peers in
    ``net.peers`` only — foreign crashes degrade to the network-level
    disconnect flips every shard needs at send time.
    """
    schedule = FaultSchedule()
    sim = net.sim
    churn: Optional[ChurnController] = None
    for event in events:
        if isinstance(event, CrashEvent):
            names = _resolve_crash_peers(event, net)
            schedule.crashes.append((event, names))
            for name in names:
                peer = net.peers.get(name)
                if peer is not None:
                    CrashSchedule(peer, crash_at=event.at, recover_at=event.recover_at).arm(sim)
                else:
                    # Foreign crash: every shard needs the network-level
                    # disconnect flags (sends to a dead peer drop at send
                    # time, on the sender's shard); the peer's full
                    # lifecycle runs only on its owner shard.
                    sim.schedule_at(event.at, net.network.set_disconnected, name, True)
                    if event.recover_at is not None:
                        sim.schedule_at(
                            event.recover_at, net.network.set_disconnected, name, False
                        )
        elif isinstance(event, PartitionEvent):
            fault = PartitionFault(net.network, _resolve_islands(event, net), active=False)
            schedule.drops.append(fault)
            _arm_window(sim, fault, event.at, event.heal_at)
        elif isinstance(event, DegradeEvent):
            fault = LinkDegradeFault(
                net.network,
                event.loss_rate,
                net.streams,
                link_filter=_degrade_link_filter(event, net),
                active=False,
            )
            schedule.drops.append(fault)
            _arm_window(sim, fault, event.at, event.restore_at)
        elif isinstance(event, AdversaryEvent):
            fault = _build_adversary(event, net)
            schedule.drops.append(fault)
            _arm_window(sim, fault, event.at, event.until)
        elif isinstance(event, EclipseEvent):
            if event.victim not in net.peer_names:
                raise ValueError(f"eclipse names unknown victim {event.victim!r}")
            attackers = _resolve_names(
                event.attackers, event.regular_slice, net, "eclipse"
            )
            fault = EclipseFault(
                net.network,
                event.victim,
                attackers,
                active=False,
                protect=event.protect,
            )
            schedule.drops.append(fault)
            _arm_window(sim, fault, event.at, event.release_at)
        elif isinstance(event, FlakyLinkEvent):
            fault = LinkDegradeFault(
                net.network,
                event.loss_rate,
                net.streams,
                link_filter=_flaky_link_filter(event, net),
                active=False,
                stream_prefix="faults:flaky",
            )
            schedule.drops.append(fault)
            _arm_window(sim, fault, event.at, event.restore_at)
        elif isinstance(event, (JoinEvent, LeaveEvent)):
            if churn is None:
                churn = ChurnController(net)
                schedule.churn.append(churn)
            names = _resolve_event_peers(
                event, net, "join" if isinstance(event, JoinEvent) else "leave",
                refuse_leaders=True,
            )
            if isinstance(event, JoinEvent):
                churn.schedule_join(event.at, names)
            else:
                churn.schedule_leave(event.at, names)
        else:
            raise TypeError(f"unknown fault event type: {type(event).__name__}")
    return schedule
