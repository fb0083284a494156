"""Point-to-point network with per-NIC serialization.

Delivery time of a message from A to B decomposes as:

* **uplink serialization** at A: the NIC transmits at ``bandwidth`` bytes/s
  and messages queue FIFO, so a burst of ``fout`` pushes of a 160 KB block
  serializes — this is exactly the leader-peer bottleneck the paper's Fig. 10
  ablation demonstrates;
* an optional **bottleneck link** behind the NIC (:mod:`repro.net.link`):
  finite bandwidth, a bounded queue and CoDel drops;
* **propagation latency** drawn from the latency model;
* **downlink serialization** at B, modelling receive-side contention when
  many peers push the same block to one target.

A node is its *routes*, a tuple ``(table, *objects)`` whose
``{message class: (index, function)}`` table a delivery looks its
message's exact class up in, to call ``function(routes[index], src,
message)`` (:meth:`Network.register`, :meth:`Network.set_routes`). There
is one table per protocol class, shared by every node of that class;
only a digest liar holds a copy of its own
(:mod:`repro.faults.adversaries`). The fault layer can additionally
disconnect nodes or arm drop faults on the network's drop stage
(:meth:`Network.arm_drop`). All traffic is accounted in the
:class:`TrafficMonitor`.

One kernel, three entry points
------------------------------

Every copy of every message goes through one per-copy loop,
:func:`repro.simulation._core.kernels.fan_out`. :meth:`Network.multicast`
is the primitive, :meth:`Network.send` is its width-1 case, and
:meth:`Network.send_aggregate` is the deliberate approximation for traffic
nobody reads (one burst, one latency draw, no delivery) that shares the
guard stage and the link admission. ``docs/networking.md`` is the
decision guide; in short:

* **per copy, in destination order**: the guards (disconnect set and drop
  stage, re-read for every copy so a fault that mutates fault state
  mid-fanout acts on the remaining copies), the sender's NIC reservation,
  link admission (tail drop, then at most one CoDel draw), the latency
  draw, the shard-egress decision and the delivery event with its
  sequence number;
* **per call**: argument validation, the sender's state lookup (its
  *port*: NIC, link queue, bound latency sampler), and the traffic
  accounting — one ``record_multicast`` for the copies that passed the
  guards. Batching it is exact: the counters are integer sums, which
  commute, and simulated time does not advance inside a call.

The three random streams a copy can touch — the drop stage's
``faults:*:<src>``, the link's ``network:queue:<src>`` and
``network:latency:<src>`` — are separate generators, so running all of a
fan-out's guards before its first latency draw consumes each of them
exactly as a per-copy ``send`` loop would; within one stream the order is
destination order, and a dropped copy draws nothing further.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.checks import require_finite
from repro.net.latency import LanLatency, LatencyModel, LatencySpec
from repro.net.link import LinkModel, new_queue_stats
from repro.net.message import Message
from repro.simulation._core.engine import SimulationError, Simulator
from repro.simulation._core.kernels import LINK_DROP_TAIL, fan_out, link_enqueue
from repro.simulation._core.monitor import TrafficMonitor
from repro.simulation.random import RandomStreams

GIGABIT_PER_SECOND_BYTES = 125_000_000  # 1 Gbps full duplex, per direction

#: The routes of a node that hears nothing: one shared empty table, which
#: every delivery misses without counting a drop.
NO_ROUTES: tuple = ({},)


class EveryClass(dict):
    """A route table that holds one ``route``, ``(index, function)``, for
    every message class: the table of a node that hears everything the
    same way (a shard's guard on the nodes another shard executes)."""

    __slots__ = ("route",)

    def __init__(self, route: Tuple[int, Callable]) -> None:
        super().__init__()
        self.route = route

    def get(self, cls, default=None):
        return self.route


@dataclass
class NetworkConfig:
    """Wire-level parameters.

    Attributes:
        bandwidth: NIC rate in bytes/second per direction (full duplex).
        envelope_overhead: fixed per-message overhead in bytes (TCP/IP +
            gRPC framing + protobuf envelope + signature).
        latency: the propagation model, preferably as a declarative
            :class:`~repro.net.latency.LatencySpec` (built by
            ``LatencyModel.from_spec``); a ready :class:`LatencyModel`
            instance is also accepted and ``None`` means LAN latency.
            After construction the field holds the *resolved* model
            instance, so ``dataclasses.replace`` carries the very model
            (and whatever ``assign_regions`` did to it) into the copy.
        link: optional :class:`~repro.net.link.LinkModel` adding sender
            bottleneck-link physics — finite bandwidth (serialization
            delay), a bounded queue and CoDel-style AQM drops — on top of
            the NIC model. ``None`` (or a no-op link) disables it.
        monitor_bin_width: traffic accounting bin width (seconds).
        downlink_queue_min_bytes: receive-side serialization is modelled
            only for messages at least this large (full blocks). Small
            messages pay their transfer time but skip the queue — their
            contribution to receiver contention is negligible and skipping
            it halves the event count.
        regions: optional node→region placement (multi-datacenter
            topologies). Region-aware latency models consult it; the fault
            layer uses it to resolve region-level partition/degrade events.
            ``build_network`` fills it from the organization placement.

    ``monitor_bin_width``, ``envelope_overhead`` and
    ``downlink_queue_min_bytes`` are refused by field name at construction
    when NaN, infinite or negative (the bin width also when zero).
    """

    bandwidth: float = float(GIGABIT_PER_SECOND_BYTES)
    envelope_overhead: int = 256
    latency: Union[LatencySpec, LatencyModel, None] = None
    monitor_bin_width: float = 1.0
    downlink_queue_min_bytes: int = 25_000
    regions: Optional[Dict[str, str]] = None
    link: Optional[LinkModel] = None

    def __post_init__(self) -> None:
        require_finite(self, "monitor_bin_width", positive=True)
        require_finite(self, "envelope_overhead", "downlink_queue_min_bytes")
        if self.link is not None and not isinstance(self.link, LinkModel):
            raise TypeError(f"link must be a LinkModel, got {type(self.link).__name__}")
        latency = self.latency
        if latency is None:
            self.latency = LanLatency()
        elif isinstance(latency, LatencySpec):
            self.latency = LatencyModel.from_spec(latency)
        elif not isinstance(latency, LatencyModel):
            raise TypeError(
                f"latency must be a LatencySpec or LatencyModel, got {type(latency).__name__}"
            )


class Network:
    """The simulated LAN connecting all processes.

    The gossip layer of Fabric operates on a complete graph (every peer can
    reach every other peer in its organization), so the network imposes no
    topology restriction; access control lives in the protocol layer.
    """

    # No __slots__: an observer wraps the instance's ``send`` and
    # ``multicast`` by assignment (neither calls the other).

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        if not self.config.bandwidth > 0:  # `not >` also rejects NaN
            raise ValueError("bandwidth must be positive")
        self._streams = streams
        # Per-node routes, one entry per registered node: a delivery looks
        # its message's exact class up in the destination's table.
        self._routes: Dict[str, tuple] = {}
        self._downlink_free_at: Dict[str, float] = {}
        self._disconnected: Dict[str, bool] = {}
        # Count of currently disconnected nodes: lets every send skip the
        # per-copy dict probes once a crashed peer has recovered (the flag
        # dict keeps ``False`` tombstones forever).
        self._n_disconnected = 0
        self.monitor = TrafficMonitor(bin_width=self.config.monitor_bin_width)
        self.regions: Dict[str, str] = dict(self.config.regions) if self.config.regions else {}
        self.dropped_messages = 0
        # The drop stage: every armed drop fault in arming order, and
        # whether any of them is active (no guard stage otherwise).
        self._drops: list = []
        self._drops_live = False
        # Hoists: one attribute lookup at construction instead of several
        # per message.
        self._bandwidth = self.config.bandwidth
        self._overhead = self.config.envelope_overhead
        self._queue_min = self.config.downlink_queue_min_bytes
        self._latency_model = self.config.latency
        self._record_multicast = self.monitor.record_multicast
        # Bottleneck-link physics (repro.net.link). A no-op link (infinite
        # bandwidth) is disarmed outright: that, plus the admission
        # arithmetic's zero-RNG guarantee, is what keeps pre-link goldens
        # bit-for-bit identical (docs/networking.md).
        link = self.config.link
        self._link = (
            None if link is None or link.is_noop else (link.bandwidth,) + link.kernel_args()
        )
        # Per-sender state, opened on a node's first send (_open_port):
        # [uplink_free_at, latency sampler, link queue state, queue draw,
        # queue accounting] — the ``port`` of kernels.fan_out. Everything a
        # send mutates or draws from is keyed by sender: a node's draw
        # sequences depend only on its own event order, never on how other
        # nodes' events interleave with it, so a shard that executes a
        # subset of the nodes consumes each stream exactly as the
        # single-process run does (docs/sharding.md).
        self._ports: Dict[str, list] = {}
        self._queue_stats: Dict[str, List[float]] = {}
        # Every source's promotion hook, bound once rather than per sender.
        self._rebind = self._promoted
        # Process-sharded execution (repro.scenarios.sharded): when a
        # shard owns only a subset of the nodes, copies to foreign
        # destinations get their full send-side physics here and are
        # appended to the egress queue as plain records instead of being
        # scheduled locally; the owning shard injects them at the next
        # window barrier.
        self._shard_owned: Optional[frozenset] = None
        self._shard_egress: Optional[list] = None
        # (message class, ignored(routes, dsts, message)): the copies their
        # receiver would ignore (elide). None until a deployment that
        # disconnects no node and rewires no route arms it.
        self._ignores: Optional[Tuple[type, Callable]] = None
        # _phases[two_phase] is the ``phase`` argument of kernels.fan_out.
        self._phases = (
            (False, self._deliver_multicast),
            (True, self._arrive_multicast),
        )

    def register(self, name: str, routes: Optional[tuple]) -> None:
        """Attach node ``name`` with its ``routes`` (:meth:`set_routes`);
        ``None`` registers a node that hears nothing yet."""
        if name in self._routes:
            raise ValueError(f"node {name!r} already registered")
        # Interned names make every per-message dict probe a pointer
        # comparison in the common case.
        self._routes[sys.intern(name)] = NO_ROUTES if routes is None else routes

    def set_routes(self, name: str, routes: Optional[tuple]) -> None:
        """Give node ``name`` its routes, or withdraw them with ``None``.

        ``routes`` is ``(table, *objects)``, the table mapping a message
        class to ``(index, function)``. A delivery looks the message's
        exact class up in the destination's table and calls
        ``function(routes[index], src, message)``; a class the table does
        not hold is ignored, not counted. A withdrawn node holds
        :data:`NO_ROUTES`, so a dead but connected peer hears nothing.
        """
        current = self._routes.get(name)
        if current is None:
            raise ValueError(f"unknown node {name!r}")
        if routes is None:
            self._routes[name] = NO_ROUTES
            return
        if self._ignores is not None and current is not NO_ROUTES and current[0] is not routes[0]:
            raise SimulationError(
                f"cannot rewire {name!r}: this network elides the copies its receivers ignore"
            )
        self._routes[name] = routes

    def __contains__(self, name: str) -> bool:
        """Whether ``name`` is a registered node."""
        return name in self._routes

    def set_disconnected(self, name: str, disconnected: bool) -> None:
        """Simulate a node dropping off the network (crash / partition)."""
        if name not in self._routes:
            raise ValueError(f"unknown node {name!r}")
        if disconnected and self._ignores is not None:
            raise SimulationError(
                f"cannot disconnect {name!r}: this network elides the copies its receivers ignore"
            )
        previously = self._disconnected.get(name, False)
        if disconnected and not previously:
            self._n_disconnected += 1
        elif previously and not disconnected:
            self._n_disconnected -= 1
        self._disconnected[name] = disconnected

    def elide(self, message_class: type, ignored: Callable) -> None:
        """Schedule no delivery for the copies of ``message_class`` that
        their receivers would ignore.

        ``ignored(routes, dsts, message)`` gets the network's routes by
        node and returns the destinations, among ``dsts``, whose handler
        would return on ``message`` without changing any state, or None.
        Such a copy keeps every send-time effect: accounting, NIC and link
        occupancy, its latency draw, its sequence number
        (:func:`~repro.simulation._core.kernels.fan_out`). Only its
        delivery event goes, which would have changed nothing on arrival
        either as long as its receiver stays connected and keeps its
        routes: from this call on, :meth:`set_disconnected` refuses to
        disconnect a node and :meth:`set_routes` refuses to rewire one.
        A copy queued on the receiver's downlink (``size >=
        downlink_queue_min_bytes``) reserves it on arrival, so it is
        always delivered. One class is elided at a time: a second call
        replaces the first. docs/networking.md, "Delivery".
        """
        self._ignores = (message_class, ignored)

    def arm_drop(self, fault) -> None:
        """Arm ``fault`` on the drop stage, after the faults armed before
        it; arming a fault again changes nothing.

        ``fault`` is a :class:`~repro.faults.injectors.DropFault`: while
        its ``active`` holds, the guard stage asks its ``drops(src, dst,
        message)`` for every copy the faults armed earlier let pass, and
        the first fault that drops a copy counts it in its ``dropped``. A
        fault calls :meth:`refresh_drops` when its ``active`` flips.
        """
        if fault not in self._drops:
            self._drops.append(fault)
        self.refresh_drops()

    def refresh_drops(self) -> None:
        """Re-check whether any armed drop fault is active: the guard stage
        runs for every copy while one is, and for none otherwise."""
        self._drops_live = any(fault.active for fault in self._drops)

    def _open_port(self, src: str) -> list:
        """Create ``src``'s sender state on its first send.

        The latency sampler draws from the per-source uniform source
        ``network:latency:<src>`` and, with a live link, CoDel draws come
        from ``network:queue:<src>``: every send path of one source
        consumes the same two streams in call order — the per-source form
        of the RNG-order contract (docs/networking.md). Each is bound to
        its source's first draw callable; when the source is promoted,
        the port slot is rebound to its live generator.
        """
        streams = self._streams
        latency = streams.uniform(f"network:latency:{src}")
        latency.rebind = self._rebind
        sample = self._latency_model.bind(latency)
        if self._link is None:
            port = [0.0, sample, None, None, None]
        else:
            stats = self._queue_stats[src] = new_queue_stats()
            queue = streams.uniform(f"network:queue:{src}")
            queue.rebind = self._rebind
            port = [0.0, sample, [0.0, 0.0, 0.0, 0.0], queue.random, stats]
        self._ports[src] = port
        return port

    def _promoted(self, name: str, live) -> None:
        """Rebind the port slot that drew from the promoted source ``name``
        (``network:<purpose>:<src>``) to its live generator: the latency
        sampler, or the queue draw."""
        _, purpose, src = name.split(":", 2)
        port = self._ports[src]
        if purpose == "latency":
            port[1] = self._latency_model.bind(live)
        else:
            port[3] = live.random

    def uniform(self, src: str, purpose: str):
        """``src``'s uniform source ``network:<purpose>:<src>`` (``latency``
        or ``queue``): tests probe a sender's stream position by its next
        draws, ``network.uniform(src, "latency").random()``."""
        if src not in self._ports:
            self._open_port(src)
        return self._streams.uniform(f"network:{purpose}:{src}")

    def queue_accounting(self) -> Dict[str, List[float]]:
        """Per-source link-queue accounting records (see
        :func:`repro.net.link.new_queue_stats` for the slot layout).
        Sharded runs merge these dicts across workers — sources are owned
        by exactly one shard, so the union is disjoint."""
        return self._queue_stats

    def enable_shard_egress(self, owned, egress: list) -> None:
        """Put the network into sharded mode.

        ``owned`` is the set of node names this shard executes; ``egress``
        is the list that collects outbound cross-shard records. Records
        are plain picklable tuples — ``("d", time, src, dst, message)``
        for single-phase deliveries and ``("a", time, src, dst, message,
        transfer)`` for two-phase (downlink-queued) arrivals, which hand
        over at their physical arrival so the receiver's downlink is
        reserved in merged arrival order on the owner shard — appended in
        send order. The shard coordinator drains the list at every window
        barrier and injects each record on the destination's owner shard
        (:meth:`inject_shard_records`).
        """
        self._shard_owned = frozenset(owned)
        self._shard_egress = egress

    def inject_shard_records(self, records) -> None:
        """Schedule cross-shard records received at a window barrier.

        Records must be sorted by the coordinator's canonical order
        (time, then source-shard id, then send order); scheduling them in
        that order assigns consecutive sequence numbers, which fixes the
        relative order of same-time injected events deterministically.
        """
        schedule = self.sim.schedule_delivery
        deliver = self._deliver_multicast
        arrive = self._arrive_multicast
        for rec in records:
            if rec[0] == "d":
                schedule(rec[1], deliver, rec[2], rec[4], rec[3])
            else:
                schedule(rec[1], arrive, rec[2], rec[4], rec[3], rec[5])

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst``: a fan-out of width one.

        Sends to unknown or disconnected destinations are silently dropped,
        like packets to a crashed host; sends from a disconnected source are
        dropped too. Self-sends are rejected — the protocols never need them.
        Validation happens before any traffic is recorded, so a rejected
        send never pollutes the monitor.
        """
        if src == dst:
            raise ValueError(f"{src!r} attempted to send a message to itself")
        if src not in self._routes:
            raise ValueError(f"unknown source node {src!r}")
        if self._n_disconnected or self._drops_live:
            self._fan_out_guarded(src, (dst,), message)
        else:
            self._fan_out(src, (dst,), message)

    def multicast(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Send one shared ``message`` instance from ``src`` to every
        destination in ``dsts``, with per-destination physics identical to
        calling :meth:`send` once per destination in order.

        The equivalence is exact — the property suite replays random
        fanouts against a naive ``send`` loop and asserts the same (time,
        dst, message) delivery sequence, drop counters, monitor and RNG
        stream positions:

        * drop rules (disconnected source/destination, drop faults) apply
          per copy, in destination order, and only copies that pass are
          recorded;
        * the sender's uplink serializes the copies back to back, a live
          link admits or drops each one, and each surviving copy draws its
          own propagation latency, **in destination order** — the
          RNG-order contract that keeps metrics bit-for-bit equal to the
          per-copy loop;
        * large copies take the two-phase arrival/downlink schedule, per
          destination;
        * consecutive copies whose computed delivery times tie exactly
          share one delivery event (safe because their sequence numbers
          would be consecutive, so no foreign event can order between
          them).
        """
        if src not in self._routes:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send().
        if src in dsts:
            raise ValueError(f"{src!r} attempted to send a message to itself")
        if self._n_disconnected or self._drops_live:
            self._fan_out_guarded(src, dsts, message)
        elif dsts:
            self._fan_out(src, dsts, message)

    def _guard(self, src: str, dsts: Sequence[str], message: Message, survivors: list) -> None:
        """The guard stage: append to ``survivors`` every destination whose
        copy neither endpoint's disconnection nor an active drop fault
        stops, and count the others as dropped.

        The drop stage and the disconnect set are re-read per copy, so
        re-entrant fault mutations — a fault that disconnects the source
        or deactivates itself mid-fanout — act on the remaining copies
        exactly as they would in a per-copy ``send`` loop.
        """
        for dst in dsts:
            if self._n_disconnected:
                disconnected = self._disconnected
                if disconnected.get(src) or disconnected.get(dst):
                    self.dropped_messages += 1
                    continue
            if self._drops_live and self._fault_drops(src, dst, message):
                self.dropped_messages += 1
                continue
            survivors.append(dst)

    def _fault_drops(self, src: str, dst: str, message: Message) -> bool:
        """Whether an active drop fault drops this copy; the first that
        does, in arming order, counts it."""
        for fault in self._drops:
            if fault.active and fault.drops(src, dst, message):
                fault.dropped += 1
                return True
        return False

    def _fan_out_guarded(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Fan out with fault machinery armed: guard stage, then kernel.

        ``finally``: when a drop fault raises on the k-th copy, the k-1
        copies before it are sent and recorded — the state a per-copy
        ``send`` loop leaves behind.
        """
        survivors: List[str] = []
        try:
            self._guard(src, dsts, message, survivors)
        finally:
            if survivors:
                self._fan_out(src, survivors, message)

    def _fan_out(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Account and emit one copy per destination; nothing can stop a
        copy any more except the sender's link."""
        size = message.payload_size() + self._overhead
        port = self._ports.get(src)
        if port is None:
            port = self._open_port(src)
        ignored = None
        ignores = self._ignores
        if ignores is not None and message.__class__ is ignores[0] and size < self._queue_min:
            ignored = ignores[1](self._routes, dsts, message)
        sim = self.sim
        # The monitor accounts a copy at send time, before the link may
        # drop it: utilization plots reflect when bytes enter the network,
        # as a host-side counter would.
        self._record_multicast(sim._now, src, dsts, message.kind, size)
        dropped = fan_out(
            sim,
            port,
            self._link,
            src,
            dsts,
            message,
            size,
            size / self._bandwidth,
            self._phases[size >= self._queue_min],
            self._shard_owned,
            self._shard_egress,
            ignored,
        )
        if dropped:
            self.dropped_messages += dropped

    def _deliver_multicast(self, src: str, message: Message, target) -> None:
        """Hand ``message`` to ``target`` (a node, or the list of nodes
        whose copies tied on one delivery time)."""
        if target.__class__ is list:
            # One copy at a time, so the disconnect state is re-read per
            # copy: a handler earlier in the group may disconnect a later
            # recipient, and the per-copy send loop this path must match
            # would drop that copy at its own delivery event.
            for dst in target:
                self._deliver_multicast(src, message, dst)
            return
        if self._n_disconnected and self._disconnected.get(target):
            self.dropped_messages += 1
            return
        routes = self._routes.get(target)
        if routes is None:
            self.dropped_messages += 1
            return
        route = routes[0].get(message.__class__)
        if route is not None:
            index, handler = route
            handler(routes[index], src, message)

    def _arrive_multicast(self, src: str, message: Message, target, transfer: float) -> None:
        """Phase two of a large copy: grant receiver downlinks.

        Receive-side queueing must be resolved in ARRIVAL order, not send
        order: an early-sent message on a slow (WAN) path must not reserve
        the receiver's downlink ahead of later-sent messages on fast
        paths. So this runs at the copies' (shared or singleton) physical
        arrival time and reserves each destination's downlink in
        destination order — tied arrivals carry consecutive sequence
        numbers, so that is the order separate events would run in.
        Deliveries are then scheduled in that order, re-grouping any
        delivery-time ties.
        """
        now = self.sim._now
        downlink_free_at = self._downlink_free_at
        if target.__class__ is not list:
            target = (target,)
        deliveries: List[list] = []  # [time, node or tied nodes]
        for dst in target:
            free_at = downlink_free_at.get(dst, 0.0)
            delivered = (free_at if free_at > now else now) + transfer
            downlink_free_at[dst] = delivered
            if deliveries and deliveries[-1][0] == delivered:
                tied = deliveries[-1]
                if tied[1].__class__ is list:
                    tied[1].append(dst)
                else:
                    tied[1] = [tied[1], dst]
            else:
                deliveries.append([delivered, dst])
        schedule = self.sim.schedule_delivery
        deliver = self._deliver_multicast
        for delivered, grouped in deliveries:
            schedule(delivered, deliver, src, message, grouped)

    def send_aggregate(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Account one identical metadata message to each destination and
        occupy the sender for the burst; deliver nothing.

        The background path: a periodic emitter's fanout of
        ``MembershipAlive`` copies, which no peer reads and of which only
        the byte rate reaches a figure. Everything the copies do to
        *other* traffic is kept, in the order a per-copy :meth:`send` loop
        does it; the deliveries themselves, which no handler would read,
        are not scheduled. ``dsts`` must be a
        sequence (``len()`` and indexing): with no guard armed it is read in
        place, not copied:

        * drop rules (disconnected source/destination, drop faults) apply
          per copy, before anything is recorded (the shared guard stage);
        * **byte accounting is exactly equivalent** — the monitor records
          one wire-sized message per surviving destination at send time;
        * uplink serialization reserves the sender's NIC for the *total*
          bytes of the fanout, like the per-copy sends would;
        * the fanout crosses a live link as one burst: a single admission
          (one queue draw at most) for its total bytes, and a drop loses
          the whole batch;
        * an admitted burst draws one propagation latency from
          ``network:latency:<src>``. The value is unused; the draw stays
          because the sender's protocol sends share the stream, so
          skipping it would move every later latency of that sender.

        Given up relative to per-copy sends:

        * no handler is called, no simulator event exists and, in sharded
          mode, nothing crosses to another shard;
        * receiver-side downlink queueing is not modelled. Per-copy sends
          of default-sized background messages *do* cross the
          ``downlink_queue_min_bytes`` threshold and occupy receiver
          downlinks (the seed's 100 KB messages did too); metadata is a
          small, steady fraction of any receiver's downlink, and the
          golden tolerance check pins the resulting latency drift;
        * a copy in flight at the instant its destination disconnects is
          not counted in ``dropped_messages``, as a per-copy send's would
          be at its delivery: only the send-time rules above count.
        """
        if src not in self._routes:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send(): a
        # rejected call must not pollute drop counters or the monitor.
        if src in dsts:
            raise ValueError(f"{src!r} attempted to send a message to itself")
        recipients = dsts
        if self._n_disconnected or self._drops_live:
            recipients = []
            self._guard(src, dsts, message, recipients)
        if not recipients:
            return
        size = message.payload_size() + self._overhead
        port = self._ports.get(src)
        if port is None:
            port = self._open_port(src)
        now = self.sim._now
        copies = len(recipients)
        self._record_multicast(now, src, recipients, message.kind, size)
        free_at = port[0]
        uplink_done = (free_at if free_at > now else now) + size / self._bandwidth * copies
        port[0] = uplink_done
        if port[2] is not None and self._admit_burst(port, size * copies, uplink_done) < 0.0:
            self.dropped_messages += copies
            return
        port[1](src, recipients[0])

    def _admit_burst(self, port: list, size: int, at: float) -> float:
        """Admit ``size`` bytes to the sender's bottleneck link as one
        packet at time ``at`` (the moment they clear the NIC). Returns the
        time they finish serializing onto the wire, or ``-1.0`` if the
        link dropped them (bounded queue overflow or CoDel).

        Same contract as a copy inside ``fan_out`` (docs/networking.md):
        at most one ``network:queue:<src>`` draw, before the latency draw,
        which a drop skips; tail drops consume no RNG.
        """
        bandwidth, queue_limit, target, interval, max_p, ramp = self._link
        transfer = size / bandwidth
        done = link_enqueue(
            port[2], at, transfer, queue_limit, target, interval, max_p, ramp, port[3]
        )
        stats = port[4]
        stats[0] += 1.0
        if done < 0.0:
            stats[1 if done == LINK_DROP_TAIL else 2] += 1.0
            return -1.0
        wait = done - transfer - at
        if wait > 0.0:
            stats[3] += wait
            if wait > stats[4]:
                stats[4] = wait
            stats[5] += size
        return done
