"""Point-to-point network with per-NIC serialization.

Delivery time of a message from A to B decomposes as:

* **uplink serialization** at A: the NIC transmits at ``bandwidth`` bytes/s
  and messages queue FIFO, so a burst of ``fout`` pushes of a 160 KB block
  serializes — this is exactly the leader-peer bottleneck the paper's Fig. 10
  ablation demonstrates;
* **propagation latency** drawn from the latency model;
* **downlink serialization** at B, modelling receive-side contention when
  many peers push the same block to one target.

Nodes register a handler; the fault layer can additionally drop messages or
disconnect nodes. All traffic is accounted in the :class:`TrafficMonitor`.

``send`` is the single hottest function of the whole simulator (every
gossip message passes through it two or three times as scheduled events),
so the config, latency sampler and monitor lookups are hoisted into bound
attributes at construction time and events are scheduled through the
engine's handle-free :meth:`~repro.simulation._core.Simulator.schedule_call`
fast path.

Fanout API — ``send`` vs ``multicast`` vs ``send_aggregate``
------------------------------------------------------------

Three entry points move a message, trading event cost against modelled
detail (see ``docs/networking.md`` for the full decision guide):

* :meth:`Network.send` — one copy to one destination, full physics.
* :meth:`Network.multicast` — one shared message instance to many
  destinations with **per-destination physics identical to a ``send``
  loop**: same drop/disconnect filtering, same per-copy uplink
  reservation and latency draw (in destination order — the RNG-order
  contract), same delivery times, byte-for-byte identical monitor
  accounting. It is purely a mechanical fast path: vectorized recording,
  batch latency sampling, pooled delivery records, and consecutive
  same-time arrivals coalesced into shared slot-delivery events. Every
  gossip fanout goes through it.
* :meth:`Network.send_aggregate` — one *approximated* batch: a single
  latency draw and a single shared arrival for the whole fanout, no
  receiver downlink queueing. Reserved for calibrated background traffic
  where only the byte accounting matters.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.net.latency import LanLatency, LatencyModel
from repro.net.link import LinkModel, new_queue_stats, summarize_queue_accounting
from repro.net.message import Message
from repro.net.spec import LatencySpec
from repro.simulation._core import LINK_DROP_TAIL, Simulator, TrafficMonitor, link_enqueue
from repro.simulation.random import RandomStreams

Handler = Callable[[str, Message], None]

GIGABIT_PER_SECOND_BYTES = 125_000_000  # 1 Gbps full duplex, per direction

# Free-list bound for pooled multicast delivery records (same spirit as the
# engine's entry pool): steady-state dissemination cycles a few dozen
# records; the cap only matters after pathological bursts.
_RECORD_POOL_MAX = 4096

# One DeprecationWarning per process for the latency_model= construction
# path; dataclasses.replace re-runs __post_init__ on every copy, and a
# config replicated across shard workers must not spam the log.
_warned_latency_model = False


@dataclass
class NetworkConfig:
    """Wire-level parameters.

    Attributes:
        bandwidth: NIC rate in bytes/second per direction (full duplex).
        envelope_overhead: fixed per-message overhead in bytes (TCP/IP +
            gRPC framing + protobuf envelope + signature).
        latency: the propagation model, preferably as a declarative
            :class:`~repro.net.spec.LatencySpec` (resolved through the
            kind registry); a ready :class:`LatencyModel` instance is also
            accepted. ``None`` defaults to LAN latency.
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
        latency_model: deprecated constructor alias for ``latency``
            (model-instance form). After construction this attribute
            always holds the *resolved* model instance — existing readers
            keep working — but passing it is deprecated; pass ``latency``
            (ideally a spec) instead.
    """

    bandwidth: float = float(GIGABIT_PER_SECOND_BYTES)
    envelope_overhead: int = 256
    latency: Union[LatencySpec, LatencyModel, None] = None
    monitor_bin_width: float = 1.0
    downlink_queue_min_bytes: int = 25_000
    regions: Optional[Dict[str, str]] = None
    link: Optional[LinkModel] = None
    latency_model: Optional[LatencyModel] = None

    def __post_init__(self) -> None:
        if self.link is not None and not isinstance(self.link, LinkModel):
            raise TypeError(f"link must be a LinkModel, got {type(self.link).__name__}")
        if self.latency_model is not None:
            # Deprecated path — or a dataclasses.replace of an already
            # resolved config, which carries both fields. In either case
            # the instance wins: replace() must preserve a model whose
            # assign_regions state was mutated after resolution.
            if self.latency is None:
                global _warned_latency_model
                if not _warned_latency_model:
                    _warned_latency_model = True
                    warnings.warn(
                        "NetworkConfig(latency_model=...) is deprecated; pass "
                        "latency=<LatencySpec> (or a LatencyModel) instead",
                        DeprecationWarning,
                        stacklevel=3,
                    )
            return
        latency = self.latency
        if latency is None:
            self.latency_model = LanLatency()
        elif isinstance(latency, LatencySpec):
            self.latency_model = LatencyModel.from_spec(latency)
        elif isinstance(latency, LatencyModel):
            self.latency_model = latency
        else:
            raise TypeError(
                f"latency must be a LatencySpec or LatencyModel, got {type(latency).__name__}"
            )


class Network:
    """The simulated LAN connecting all processes.

    The gossip layer of Fabric operates on a complete graph (every peer can
    reach every other peer in its organization), so the network imposes no
    topology restriction; access control lives in the protocol layer.
    """

    # No __slots__: integration tests wrap ``send`` by assignment.

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
        self._handlers: Dict[str, Handler] = {}
        self._uplink_free_at: Dict[str, float] = {}
        self._downlink_free_at: Dict[str, float] = {}
        self._disconnected: Dict[str, bool] = {}
        # Count of currently disconnected nodes: lets every hot path skip
        # the per-copy dict probes once a crashed peer has recovered (the
        # flag dict keeps ``False`` tombstones forever).
        self._n_disconnected = 0
        self.monitor = TrafficMonitor(bin_width=self.config.monitor_bin_width)
        self.regions: Dict[str, str] = dict(self.config.regions) if self.config.regions else {}
        self.dropped_messages = 0
        self._drop_filter: Optional[Callable[[str, str, Message], bool]] = None
        # Hot-path hoists: one attribute lookup at construction instead of
        # several per message.
        self._bandwidth = self.config.bandwidth
        self._overhead = self.config.envelope_overhead
        self._queue_min = self.config.downlink_queue_min_bytes
        # Latency draws come from a *per-source* stream
        # (``network:latency:<src>``), bound lazily on a node's first send.
        # Keying the stream by sender is what makes the simulation
        # shardable: a node's draw sequence depends only on its own event
        # order, never on how other nodes' events interleave with it, so a
        # shard that executes a subset of the nodes consumes each stream
        # exactly as the single-process run does (see docs/sharding.md).
        self._latency_model = self.config.latency_model
        self._send_samplers: Dict[str, Callable[[str, str], float]] = {}
        self._batch_samplers: Dict[str, Callable] = {}
        self._record = self.monitor.record
        self._record_multicast = self.monitor.record_multicast
        # Bottleneck-link physics (repro.net.link). A no-op link (infinite
        # bandwidth) is disarmed outright so the link-free hot paths —
        # including the vectorized multicast fast path, which a live link
        # must avoid because copies can drop — run exactly as before;
        # that, plus the kernel's zero-RNG guarantee, is what keeps
        # pre-link goldens bit-for-bit identical (docs/networking.md).
        link = self.config.link
        if link is not None and link.is_noop:
            link = None
        self._link = link
        if link is not None:
            self._link_bandwidth = link.bandwidth
            (
                self._link_queue_limit,
                self._link_target,
                self._link_interval,
                self._link_max_p,
                self._link_ramp,
            ) = link.kernel_args()
        # Per-source mutable queue state ([free_at, first_above, count,
        # dropping]), CoDel drop RNG (stream ``network:queue:<src>``) and
        # accounting — all keyed by sender, like the latency streams, so
        # link physics shard along with everything else.
        self._link_states: Dict[str, list] = {}
        self._queue_rngs: Dict[str, Callable[[], float]] = {}
        self._queue_stats: Dict[str, List[float]] = {}
        # Process-sharded execution (repro.simulation.sharded): when a
        # shard owns only a subset of the nodes, sends to foreign
        # destinations compute their full physics here (monitor record,
        # uplink reservation, latency draw) and are appended to the egress
        # queue as plain records instead of being scheduled locally; the
        # owning shard injects them at the next window barrier.
        self._shard_owned: Optional[frozenset] = None
        self._shard_egress: Optional[list] = None
        # Free lists for multicast delivery/arrival records. Each record's
        # last slot is the record itself, so the engine's ``callback(*rec)``
        # hands the callback its own record to reclaim — zero allocations
        # per recipient in steady state.
        self._deliver_pool: list = []
        self._arrive_pool: list = []

    def register(self, name: str, handler: Handler) -> None:
        """Attach a process; ``handler(src, message)`` is called on delivery."""
        if name in self._handlers:
            raise ValueError(f"node {name!r} already registered")
        # Interned names make every per-message dict probe a pointer
        # comparison in the common case.
        self._handlers[sys.intern(name)] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def region_of(self, name: str) -> Optional[str]:
        """The node's region in a multi-datacenter topology, if placed."""
        return self.regions.get(name)

    def set_disconnected(self, name: str, disconnected: bool) -> None:
        """Simulate a node dropping off the network (crash / partition)."""
        previously = self._disconnected.get(name, False)
        if disconnected and not previously:
            self._n_disconnected += 1
        elif previously and not disconnected:
            self._n_disconnected -= 1
        self._disconnected[name] = disconnected

    def set_drop_filter(self, drop: Optional[Callable[[str, str, Message], bool]]) -> None:
        """Install a message-drop predicate (fault injection / packet loss)."""
        self._drop_filter = drop

    def _bind_latency(self, src: str) -> Callable[[str, str], float]:
        """Create and cache the per-source latency samplers for ``src``.

        Both the scalar and the batch sampler close over the *same*
        ``random.Random``, so sends and multicasts from one source consume
        its stream sequentially in call order — the per-source form of the
        RNG-order contract (docs/networking.md).
        """
        rng = self._streams.stream(f"network:latency:{src}")
        sampler = self._latency_model.bind(rng)
        self._send_samplers[src] = sampler
        self._batch_samplers[src] = self._latency_model.bind_batch(rng)
        return sampler

    def latency_rng(self, src: str):
        """The raw per-source latency stream (tests probe its position)."""
        if src not in self._send_samplers:
            self._bind_latency(src)
        return self._streams.stream(f"network:latency:{src}")

    def _link_admit(self, src: str, size: int, at: float) -> float:
        """Admit one ``size``-byte copy to ``src``'s bottleneck link at
        time ``at`` (the moment it clears the NIC). Returns the time the
        copy finishes serializing onto the wire, or ``-1.0`` if the link
        dropped it (bounded queue overflow or CoDel).

        RNG contract (docs/networking.md): CoDel's probabilistic drops
        draw from the per-source ``network:queue:<src>`` stream — at most
        one uniform per copy, *before* the copy's latency draw, and a
        dropped copy consumes no latency draw at all. Tail drops consume
        no RNG. Callers must therefore invoke this before sampling
        propagation latency and skip the sample on drop.
        """
        state = self._link_states.get(src)
        if state is None:
            state = [0.0, 0.0, 0.0, 0.0]
            self._link_states[src] = state
            self._queue_rngs[src] = self._streams.stream(f"network:queue:{src}").random
            self._queue_stats[src] = new_queue_stats()
        transfer = size / self._link_bandwidth
        done = link_enqueue(
            state,
            at,
            transfer,
            self._link_queue_limit,
            self._link_target,
            self._link_interval,
            self._link_max_p,
            self._link_ramp,
            self._queue_rngs[src],
        )
        stats = self._queue_stats[src]
        stats[0] += 1.0
        if done < 0.0:
            if done == LINK_DROP_TAIL:
                stats[1] += 1.0
            else:
                stats[2] += 1.0
            return -1.0
        wait = done - transfer - at
        if wait > 0.0:
            stats[3] += wait
            if wait > stats[4]:
                stats[4] = wait
            stats[5] += size
        return done

    def queue_accounting(self) -> Dict[str, List[float]]:
        """Per-source link-queue accounting records (see
        :func:`repro.net.link.new_queue_stats` for the slot layout).
        Sharded runs merge these dicts across workers — sources are owned
        by exactly one shard, so the union is disjoint."""
        return self._queue_stats

    def link_summary(self) -> Dict[str, object]:
        """The snapshot ``link`` section: enabled flag + aggregated queue
        accounting (sorted-source summation — bit-for-bit equal between
        single-process and merged sharded runs)."""
        summary: Dict[str, object] = {"enabled": self._link is not None}
        summary.update(summarize_queue_accounting(self._queue_stats))
        return summary

    def enable_shard_egress(self, owned, egress: list) -> None:
        """Put the network into sharded mode.

        ``owned`` is the set of node names this shard executes; ``egress``
        is the list that collects outbound cross-shard records. Records
        are plain picklable tuples — ``("d", time, src, dst, message)``
        for single-phase deliveries and ``("a", time, src, dst, message,
        transfer)`` for two-phase (downlink-queued) arrivals — appended in
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
        sim = self.sim
        for rec in records:
            if rec[0] == "d":
                sim.schedule_call(rec[1], self._deliver, (rec[2], rec[3], rec[4]))
            else:
                sim.schedule_call(rec[1], self._arrive, (rec[2], rec[3], rec[4], rec[5]))

    def wire_size(self, message: Message) -> int:
        """Bytes on the wire: payload plus fixed envelope."""
        return message.payload_size() + self._overhead

    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst``.

        Sends to unknown or disconnected destinations are silently dropped,
        like packets to a crashed host; sends from a disconnected source are
        dropped too. Self-sends are rejected — the protocols never need them.
        Validation happens before any traffic is recorded, so a rejected
        send never pollutes the monitor.
        """
        if src == dst:
            raise ValueError(f"{src!r} attempted to send a message to itself")
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        size = message.payload_size() + self._overhead
        if self._n_disconnected:
            disconnected = self._disconnected
            if disconnected.get(src) or disconnected.get(dst):
                self.dropped_messages += 1
                return
        if self._drop_filter is not None and self._drop_filter(src, dst, message):
            self.dropped_messages += 1
            return
        sim = self.sim
        now = sim._now  # friend access: skips the property call per message
        # The monitor accounts the message at send time: utilization plots
        # reflect when bytes enter the network, as a host-side counter would.
        self._record(now, src, dst, message.kind, size)
        transfer = size / self._bandwidth
        uplink_free_at = self._uplink_free_at
        free_at = uplink_free_at.get(src, 0.0)
        uplink_done = (free_at if free_at > now else now) + transfer
        uplink_free_at[src] = uplink_done
        if self._link is not None:
            # Bottleneck link after the NIC: serialization at link
            # bandwidth plus bounded-queue residency; a dropped copy
            # consumed its queue draw (if any) but takes no latency draw.
            uplink_done = self._link_admit(src, size, uplink_done)
            if uplink_done < 0.0:
                self.dropped_messages += 1
                return
        sample = self._send_samplers.get(src)
        if sample is None:
            sample = self._bind_latency(src)
        arrival = uplink_done + sample(src, dst)
        owned = self._shard_owned
        if owned is not None and dst not in owned:
            # Cross-shard: the full send-side physics (monitor record,
            # uplink reservation, latency draw) happened above exactly as
            # in a local send; the delivery itself is the destination
            # shard's job. Two-phase copies hand over at their physical
            # arrival so the receiver's downlink is reserved in merged
            # arrival order on the owner shard.
            if size < self._queue_min:
                self._shard_egress.append(("d", arrival + transfer, src, dst, message))
            else:
                self._shard_egress.append(("a", arrival, src, dst, message, transfer))
            return
        if size < self._queue_min:
            # Single-phase delivery through a pooled record, with the heap
            # push inlined (friend access, same pattern as the multicast
            # loop): no scheduling call frame and no argument-tuple
            # allocation on the hottest function of the simulator.
            pool = self._deliver_pool
            if pool:
                rec = pool.pop()
                rec[0] = arrival + transfer
                rec[1] = src
                rec[2] = message
                rec[3] = dst
            else:
                rec = [arrival + transfer, src, message, dst, None]
                rec[4] = rec
            if not rec[0] >= now:
                self._deliver_pool.append(rec)
                sim._reject_time(rec[0])
            entry_pool = sim._pool
            if entry_pool:
                entry = entry_pool.pop()
                entry[0] = rec[0]
                entry[1] = sim._seq
                entry[2] = self._deliver_multicast
                entry[3] = rec
                entry[4] = None
            else:
                entry = [rec[0], sim._seq, self._deliver_multicast, rec, None]
            sim._seq += 1
            sim._live += 1
            heap = sim._heap
            _heappush(heap, entry)
            if len(heap) > sim._peak_heap:
                sim._peak_heap = len(heap)
            return
        # Receive-side queueing must be resolved in ARRIVAL order, not send
        # order: an early-sent message on a slow (WAN) path must not
        # reserve the receiver's downlink ahead of later-sent messages on
        # fast paths. Large messages therefore take a two-phase schedule.
        sim.schedule_call(arrival, self._arrive, (src, dst, message, transfer))

    def multicast(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Send one shared ``message`` instance from ``src`` to every
        destination in ``dsts``, with per-destination physics identical to
        calling :meth:`send` once per destination in order.

        This is the gossip-fanout fast path. The equivalence contract is
        exact — the property suite replays random fanouts against a naive
        ``send`` loop and asserts the same (time, dst, message) delivery
        sequence:

        * drop rules (disconnected source/destination, drop filters) apply
          per copy, in destination order, before that copy is recorded;
        * the sender's uplink serializes the copies back to back and each
          copy draws its own propagation latency, **in destination order**
          — the RNG-order contract that keeps metrics bit-for-bit equal to
          the per-copy loop;
        * large copies take the same two-phase arrival/downlink schedule
          as :meth:`send`, per destination.

        What changes is purely mechanical cost: traffic is recorded
        through one vectorized :meth:`TrafficMonitor.record_multicast`
        call, latencies come from the model's batch sampler, deliveries
        are scheduled through pooled records in one engine call, and
        consecutive copies whose computed delivery times tie exactly
        coalesce into one shared slot-delivery event (sharing is safe
        precisely because their sequence numbers are consecutive, so no
        foreign event can order between them).
        """
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send().
        for dst in dsts:
            if dst == src:
                raise ValueError(f"{src!r} attempted to send a message to itself")
        if "send" in self.__dict__ or self._shard_owned is not None:
            # ``send`` was wrapped by instance assignment (integration-test
            # instrumentation), or the network runs in sharded mode: route
            # every copy through ``send`` so the wrapper observes the
            # fanout / foreign copies land on the egress queue. The
            # per-copy loop is the definitional semantics of multicast, so
            # physics and monitor accounting stay byte-identical.
            send = self.send
            for dst in dsts:
                send(src, dst, message)
            return
        n = len(dsts)
        if n == 0:
            return
        if n == 1:
            self.send(src, dsts[0], message)
            return
        if self._n_disconnected or self._drop_filter is not None or self._link is not None:
            # A live link can drop copies and interleaves a queue draw
            # before each latency draw, so it needs the per-copy loop too.
            self._multicast_guarded(src, dsts, message)
            return
        # Steady-state fast path: no fault machinery installed, so no copy
        # can drop and the per-copy bookkeeping vectorizes.
        size = message.payload_size() + self._overhead
        sim = self.sim
        now = sim._now
        self._record_multicast(now, src, dsts, message.kind, size)
        transfer = size / self._bandwidth
        uplink_free_at = self._uplink_free_at
        free_at = uplink_free_at.get(src, 0.0)
        uplink_done = free_at if free_at > now else now
        sample_batch = self._batch_samplers.get(src)
        if sample_batch is None:
            self._bind_latency(src)
            sample_batch = self._batch_samplers[src]
        latencies = sample_batch(src, dsts)
        two_phase = size >= self._queue_min
        if two_phase:
            pool = self._arrive_pool
            callback = self._arrive_multicast
        else:
            pool = self._deliver_pool
            callback = self._deliver_multicast
        # Scheduling is inlined (friend access to the engine's entry pool
        # and heap, same pattern as ``sim._now``): one pooled record and
        # one pooled heap entry per surviving copy, pushed in destination
        # order with consecutive sequence numbers, no per-copy call frame.
        entry_pool = sim._pool
        heap = sim._heap
        seq = sim._seq
        previous_time = -1.0
        previous_rec: Optional[list] = None
        index = 0
        for dst in dsts:
            uplink_done += transfer
            arrival = uplink_done + latencies[index]
            index += 1
            event_time = arrival if two_phase else arrival + transfer
            if not event_time >= now:
                # Negative or NaN latency from a broken model: fail loudly
                # like schedule_call would, with the counters consistent.
                sim._live += seq - sim._seq
                sim._seq = seq
                sim._reject_time(event_time)
            if event_time == previous_time:
                # Exact tie with the immediately preceding copy: fold into
                # its (already scheduled) record, keeping destination
                # (= sequence) order. Heap ordering is untouched — only
                # the record's target slot mutates.
                target = previous_rec[3]
                if target.__class__ is list:
                    target.append(dst)
                else:
                    previous_rec[3] = [target, dst]
                continue
            if pool:
                rec = pool.pop()
                rec[0] = event_time
                rec[1] = src
                rec[2] = message
                rec[3] = dst
            elif two_phase:
                rec = [event_time, src, message, dst, transfer, None]
                rec[5] = rec
            else:
                rec = [event_time, src, message, dst, None]
                rec[4] = rec
            if two_phase:
                rec[4] = transfer
            if entry_pool:
                entry = entry_pool.pop()
                entry[0] = event_time
                entry[1] = seq
                entry[2] = callback
                entry[3] = rec
                entry[4] = None
            else:
                entry = [event_time, seq, callback, rec, None]
            seq += 1
            _heappush(heap, entry)
            previous_time = event_time
            previous_rec = rec
        uplink_free_at[src] = uplink_done
        sim._live += seq - sim._seq
        sim._seq = seq
        if len(heap) > sim._peak_heap:
            sim._peak_heap = len(heap)

    def _multicast_guarded(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Multicast with fault machinery active: the exact per-copy loop.

        Checks, monitor records, uplink reservations and latency draws
        interleave per destination precisely as the naive ``send`` loop
        would, so re-entrant fault mutations — e.g. a drop filter that
        disconnects the source or swaps itself mid-fanout — observe and
        produce identical state. The filter and disconnect set are
        re-read per copy for exactly that reason.
        """
        size = message.payload_size() + self._overhead
        kind = message.kind
        sim = self.sim
        record = self._record
        sample = self._send_samplers.get(src)
        if sample is None:
            sample = self._bind_latency(src)
        transfer = size / self._bandwidth
        queue_min = self._queue_min
        uplink_free_at = self._uplink_free_at
        link_armed = self._link is not None
        for dst in dsts:
            if self._n_disconnected:
                disconnected = self._disconnected
                if disconnected.get(src) or disconnected.get(dst):
                    self.dropped_messages += 1
                    continue
            drop_filter = self._drop_filter
            if drop_filter is not None and drop_filter(src, dst, message):
                self.dropped_messages += 1
                continue
            now = sim._now
            record(now, src, dst, kind, size)
            free_at = uplink_free_at.get(src, 0.0)
            uplink_done = (free_at if free_at > now else now) + transfer
            uplink_free_at[src] = uplink_done
            if link_armed:
                # Same order as send(): queue draw (if CoDel is dropping)
                # before the latency draw; a dropped copy takes neither
                # the latency draw nor a delivery event.
                uplink_done = self._link_admit(src, size, uplink_done)
                if uplink_done < 0.0:
                    self.dropped_messages += 1
                    continue
            arrival = uplink_done + sample(src, dst)
            if size < queue_min:
                sim.schedule_call(arrival + transfer, self._deliver, (src, dst, message))
            else:
                sim.schedule_call(arrival, self._arrive, (src, dst, message, transfer))

    def _deliver_multicast(self, time: float, src: str, message: Message, target, rec: list) -> None:
        # Reclaim the pooled record first (locals hold everything needed).
        # Only the message slot is cleared: a parked record must not pin a
        # 160 KB block, while node-name strings are interned and live for
        # the whole run anyway.
        rec[2] = None
        pool = self._deliver_pool
        if len(pool) < _RECORD_POOL_MAX:
            pool.append(rec)
        handlers = self._handlers
        if target.__class__ is list:
            for dst in target:
                # Disconnect state is re-read per copy: a handler earlier
                # in the group may disconnect a later recipient, and the
                # per-copy send loop this path must match would drop that
                # copy at its own delivery event.
                if self._n_disconnected and self._disconnected.get(dst):
                    self.dropped_messages += 1
                    continue
                handler = handlers.get(dst)
                if handler is None:
                    self.dropped_messages += 1
                    continue
                handler(src, message)
            return
        if self._n_disconnected and self._disconnected.get(target):
            self.dropped_messages += 1
            return
        handler = handlers.get(target)
        if handler is None:
            self.dropped_messages += 1
            return
        handler(src, message)

    def _arrive_multicast(
        self, time: float, src: str, message: Message, target, transfer: float, rec: list
    ) -> None:
        """Phase two of a large-copy multicast: grant receiver downlinks.

        Runs at the copies' (shared or singleton) physical arrival time and
        reserves each destination's downlink in destination order — exactly
        the reservations the per-copy :meth:`_arrive` events would make,
        since tied arrivals carry consecutive sequence numbers. Deliveries
        are then re-scheduled through the pooled single-phase records,
        re-grouping any delivery-time ties.
        """
        rec[2] = None
        pool = self._arrive_pool
        if len(pool) < _RECORD_POOL_MAX:
            pool.append(rec)
        now = self.sim._now
        downlink_free_at = self._downlink_free_at
        deliver_pool = self._deliver_pool
        if target.__class__ is not list:
            target = (target,)
        records: list = []
        previous_time = -1.0
        previous_rec: Optional[list] = None
        for dst in target:
            free_at = downlink_free_at.get(dst, 0.0)
            delivered = (free_at if free_at > now else now) + transfer
            downlink_free_at[dst] = delivered
            if delivered == previous_time:
                grouped = previous_rec[3]
                if grouped.__class__ is list:
                    grouped.append(dst)
                else:
                    previous_rec[3] = [grouped, dst]
                continue
            if deliver_pool:
                out = deliver_pool.pop()
                out[0] = delivered
                out[1] = src
                out[2] = message
                out[3] = dst
            else:
                out = [delivered, src, message, dst, None]
                out[4] = out
            records.append(out)
            previous_time = delivered
            previous_rec = out
        self.sim.schedule_records(self._deliver_multicast, records)

    def send_aggregate(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """Send one identical metadata message to each destination as a
        single simulator event.

        The aggregated-background fast path: a periodic emitter's fanout of
        ``MembershipAlive`` copies coalesces into one scheduled delivery
        instead of one or two events per copy. Semantics relative to
        per-copy :meth:`send`:

        * **byte accounting is exactly equivalent** — the monitor records
          one ``wire_size`` message per destination at send time (the
          delivery batching is invisible to every bandwidth figure);
        * uplink serialization reserves the sender's NIC for the *total*
          bytes of the fanout, like the per-copy sends would;
        * drop rules (disconnected source/destination, drop filters) apply
          per copy, before anything is recorded;
        * one propagation latency is drawn for the whole batch and the
          copies are delivered together one transfer after arrival —
          per-destination latency spread is dropped;
        * receiver-side downlink queueing is not modelled. Per-copy sends
          of default-sized background messages *do* cross the
          ``downlink_queue_min_bytes`` threshold and occupy receiver
          downlinks (the seed's 100 KB messages did too); the aggregated
          path deliberately trades that receive-contention detail away —
          metadata is a small, steady fraction of any receiver's downlink,
          and the golden tolerance check pins the resulting latency drift.

        Drop state is re-read per copy, so a drop filter that mutates the
        fault machinery mid-fanout (disconnecting the source, swapping
        itself) affects the remaining copies exactly as it would a
        per-copy loop — a mid-fanout drop can never leave the shared-event
        accounting out of step with the drop counters.
        """
        if src not in self._handlers:
            raise ValueError(f"unknown source node {src!r}")
        # Full validation before any state change, exactly like send(): a
        # rejected call must not pollute drop counters or the monitor.
        for dst in dsts:
            if dst == src:
                raise ValueError(f"{src!r} attempted to send a message to itself")
        size = message.payload_size() + self._overhead
        if self._n_disconnected == 0 and self._drop_filter is None:
            # Steady state: no fault machinery installed, nothing can drop
            # — every destination is a recipient (copied: the scheduled
            # delivery must not alias a caller-owned list).
            recipients = list(dsts)
            if not recipients:
                return
        else:
            if self._disconnected.get(src):
                self.dropped_messages += len(dsts)
                return
            recipients = []
            for dst in dsts:
                if self._n_disconnected:
                    disconnected = self._disconnected
                    if disconnected.get(src) or disconnected.get(dst):
                        self.dropped_messages += 1
                        continue
                drop_filter = self._drop_filter
                if drop_filter is not None and drop_filter(src, dst, message):
                    self.dropped_messages += 1
                    continue
                recipients.append(dst)
            if not recipients:
                return
        sim = self.sim
        now = sim._now
        self._record_multicast(now, src, recipients, message.kind, size)
        transfer = size / self._bandwidth
        uplink_free_at = self._uplink_free_at
        free_at = uplink_free_at.get(src, 0.0)
        uplink_done = (free_at if free_at > now else now) + transfer * len(recipients)
        uplink_free_at[src] = uplink_done
        if self._link is not None:
            # The aggregate is one batched emission, so it crosses the
            # bottleneck as one burst: a single admission (one queue draw
            # at most) for the fanout's total bytes, and a drop loses the
            # whole batch — mirroring the single shared latency draw.
            uplink_done = self._link_admit(src, size * len(recipients), uplink_done)
            if uplink_done < 0.0:
                self.dropped_messages += len(recipients)
                return
        sample = self._send_samplers.get(src)
        if sample is None:
            sample = self._bind_latency(src)
        arrival = uplink_done + sample(src, recipients[0]) + transfer
        if not arrival >= now:
            sim._reject_time(arrival)
        owned = self._shard_owned
        if owned is not None:
            # Sharded mode: foreign recipients leave as single-phase
            # records at the shared arrival (the aggregated path models no
            # downlink queueing); local recipients keep the one batched
            # delivery event.
            local = [dst for dst in recipients if dst in owned]
            egress = self._shard_egress
            for dst in recipients:
                if dst not in owned:
                    egress.append(("d", arrival, src, dst, message))
            if not local:
                return
            recipients = local
        # Inlined heap push (friend access), as in send()/multicast():
        # the background emitters call this once per period per peer.
        entry_pool = sim._pool
        if entry_pool:
            entry = entry_pool.pop()
            entry[0] = arrival
            entry[1] = sim._seq
            entry[2] = self._deliver_aggregate
            entry[3] = (src, recipients, message)
            entry[4] = None
        else:
            entry = [arrival, sim._seq, self._deliver_aggregate, (src, recipients, message), None]
        sim._seq += 1
        sim._live += 1
        heap = sim._heap
        _heappush(heap, entry)
        if len(heap) > sim._peak_heap:
            sim._peak_heap = len(heap)

    def _deliver_aggregate(self, src: str, recipients: list, message: Message) -> None:
        handlers = self._handlers
        for dst in recipients:
            # Re-read per copy: a handler may disconnect a later recipient
            # of the same batch (see _deliver_multicast).
            if self._n_disconnected and self._disconnected.get(dst):
                self.dropped_messages += 1
                continue
            handler = handlers.get(dst)
            if handler is None:
                self.dropped_messages += 1
                continue
            handler(src, message)

    def _arrive(self, src: str, dst: str, message: Message, transfer: float) -> None:
        now = self.sim._now
        free_at = self._downlink_free_at.get(dst, 0.0)
        delivered = (free_at if free_at > now else now) + transfer
        self._downlink_free_at[dst] = delivered
        self.sim.schedule_call(delivered, self._deliver, (src, dst, message))

    def _deliver(self, src: str, dst: str, message: Message) -> None:
        if self._n_disconnected and self._disconnected.get(dst):
            self.dropped_messages += 1
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped_messages += 1
            return
        handler(src, message)
