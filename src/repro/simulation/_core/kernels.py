"""The per-copy kernels of the network's send paths: latency sampling,
link admission and fan-out, driven by :mod:`repro.net.latency`,
:mod:`repro.net.link` and :mod:`repro.net.network` (docs/networking.md)."""

from __future__ import annotations

import random as _random
from heapq import heappush as _heappush
from math import exp as _exp, log as _log
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.simulation._core.engine import _INF, Simulator


# Latency sampling kernels (see repro/net/latency.py for the model classes)

# Same magic constant random.normalvariate uses; imported rather than
# recomputed so the kernels are bit-for-bit the stdlib's draws.
_NV_MAGICCONST: float = _random.NV_MAGICCONST  # type: ignore[attr-defined]


def lan_sample(
    params: Tuple[Callable[[], float], float, float, float], src: str, dst: str
) -> float:
    """The per-message delay of :class:`~repro.net.latency.LanLatency`:
    ``base`` plus a lognormal draw, with ``params = (uniform, base, mu,
    sigma)``.

    One kernel for every sender: ``LanLatency.bind`` hands each sender
    this function bound to its own ``params`` tuple (a bound method,
    ``(src, dst) -> delay``), so a sender costs a tuple and a method
    object, not a closure with a cell per parameter. The loop replicates
    ``random.normalvariate``'s Kinderman-Monahan rejection sampling
    verbatim (same NV_MAGICCONST, same order of ``uniform()``
    consumption), so the draw sequence and results are bit-for-bit those
    of ``rng.lognormvariate(mu, sigma)`` — the stdlib pair of call frames
    (lognormvariate -> normalvariate) costs more than the draw itself on
    this path.
    """
    uniform, base, mu, sigma = params
    while True:
        u1 = uniform()
        u2 = 1.0 - uniform()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -_log(u2):
            break
    return base + _exp(mu + z * sigma)


def topology_sample(
    params: Tuple[
        Callable[[], float],
        Dict[str, str],
        Dict[Tuple[Optional[str], Optional[str]], Tuple[float, Optional[float], float]],
        Callable[[Optional[str], Optional[str]], Tuple[float, Optional[float], float]],
    ],
    src: str,
    dst: str,
) -> float:
    """The per-message delay of :class:`~repro.net.latency.TopologyLatency`,
    with ``params = (uniform, region_of, pair_params, resolve)``, bound
    per sender like :func:`lan_sample`: the ``(base, mu, sigma)`` of the
    endpoints' region pair from ``pair_params`` (``resolve`` fills it on a
    miss), then the same inlined Kinderman-Monahan draw as
    :func:`lan_sample` for a jittered pair and no draw at all for a
    base-only one (``mu is None``).
    """
    uniform, region_of, pair_params, resolve = params
    src_region = region_of.get(src)
    dst_region = region_of.get(dst)
    pair = pair_params.get((src_region, dst_region))
    if pair is None:
        pair = resolve(src_region, dst_region)
    base, mu, sigma = pair
    if mu is None:
        return base
    while True:
        u1 = uniform()
        u2 = 1.0 - uniform()
        z = _NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -_log(u2):
            break
    return base + _exp(mu + z * sigma)


# Link queueing kernel (see repro/net/link.py for the LinkModel config)

# link_enqueue sentinel returns: the packet was dropped instead of queued.
LINK_DROP_TAIL: float = -1.0
LINK_DROP_CODEL: float = -2.0


def link_enqueue(
    state: List[float],
    now: float,
    transfer: float,
    queue_limit: float,
    target: float,
    interval: float,
    max_p: float,
    ramp: float,
    uniform: Callable[[], float],
) -> float:
    """Admit one packet to a bottleneck link queue; return its drain time.

    ``state`` is the mutable per-link queue state ``[free_at, first_above,
    drop_count, dropping]`` (floats throughout). ``now`` is when the packet reaches
    the bottleneck, ``transfer`` its serialization time (size/bandwidth).

    Semantics, in order:

    * The packet's queueing delay is ``max(free_at - now, 0)`` — time
      spent behind packets already serializing. If that exceeds
      ``queue_limit`` (the queue's capacity expressed in seconds of
      drain time) the packet is tail-dropped: return ``LINK_DROP_TAIL``,
      **no RNG consumed, no state mutated**.
    * CoDel-style AQM (only when ``target > 0``): a queueing delay below
      ``target`` resets the congestion episode; at or above ``target``
      the first such packet arms a deadline ``now + interval``, and once
      the deadline passes the link enters dropping state. While dropping,
      each packet consumes **exactly one** ``uniform()`` draw and is
      dropped with probability ``min(max_p, (drop_count + 1) / ramp)``
      (return ``LINK_DROP_CODEL``) — drop probability ramps up the
      longer the episode persists, mirroring CoDel's control law without
      its sqrt schedule.
    * Otherwise the packet is admitted: ``free_at`` advances to
      ``start + transfer``, which is returned as the drain time.

    The RNG contract the rest of the stack relies on: a disabled link
    (infinite ``queue_limit``, ``target <= 0``) consumes **zero** RNG and
    returns ``now + transfer`` — with ``transfer == 0`` it is a pure
    no-op, which is what keeps pre-link goldens bit-for-bit identical.
    """
    free_at = state[0]
    start = free_at if free_at > now else now
    wait = start - now
    if wait > queue_limit:
        return LINK_DROP_TAIL
    if target > 0.0:
        if wait < target:
            # Below target: the congestion episode (if any) ends.
            state[1] = 0.0
            state[2] = 0.0
            state[3] = 0.0
        else:
            if state[3] == 0.0:
                if state[1] == 0.0:
                    state[1] = now + interval
                elif now >= state[1]:
                    state[3] = 1.0
            if state[3] != 0.0:
                p = (state[2] + 1.0) / ramp
                if p > max_p:
                    p = max_p
                if uniform() < p:
                    state[2] = state[2] + 1.0
                    return LINK_DROP_CODEL
    end = start + transfer
    state[0] = end
    return end


# Fan-out kernel (driven by repro/net/network.py; see docs/networking.md)

def fan_out(
    sim: Simulator,
    port: List[Any],
    link: Optional[Tuple[float, float, float, float, float, float]],
    src: str,
    dsts: Sequence[str],
    message: Any,
    size: int,
    transfer: float,
    phase: Tuple[bool, Callable[..., Any]],
    owned: Optional[Any],
    egress: Optional[List[Tuple[Any, ...]]],
    ignored: Optional[Sequence[str]],
) -> int:
    """Put one ``size``-byte copy of ``message`` per destination on the
    wire: the per-copy physics behind every ``Network`` send path, in
    destination order. Returns how many copies the link dropped.

    ``port`` is the sender's mutable state ``[uplink_free_at, sample,
    link_state, queue_uniform, queue_stats]``; the last three are ``None``
    without a bottleneck link, else the :func:`link_enqueue` state, the
    ``network:queue:<src>`` draw and the accounting record of
    :func:`repro.net.link.new_queue_stats`. ``link`` is ``(bandwidth,
    queue_limit, target, interval, max_p, ramp)``. ``phase`` is
    ``(two_phase, callback)``: copies below the downlink threshold are
    delivered one ``transfer`` after they arrive, larger ones hand over to
    the receiver's downlink at arrival.

    Per copy, exactly what one ``send`` does: the NIC serializes it behind
    the previous copy; :func:`link_enqueue` admits it or drops it before
    any latency is drawn; ``sample`` draws its propagation delay; a
    destination another shard owns (``owned`` / ``egress``) leaves as a
    plain record, a local one as the delivery entry ``(time, seq,
    callback, src, message, dst)`` (``(..., dst, transfer)`` for a
    two-phase copy), its arguments in the entry itself, pushed with the
    next sequence number. Each local push waits until the next local copy's
    time differs (or the call ends), so a copy whose time ties exactly
    with the previous local copy's joins its pending destination — a name
    becomes a list — before the entry is built: their sequence numbers
    would be consecutive, so no other event could run between them, and
    no tuple is ever rebuilt.

    A local copy to a destination in ``ignored`` (one whose receiver
    would ignore it, :meth:`repro.net.network.Network.elide`) is sent
    like any other, and it ties and takes its sequence number like any
    other, but it names no destination: an entry left naming none is
    not pushed. Every other entry is the one the call would push
    without ``ignored``, with the same sequence number.

    Per call: the sender's NIC, the queue accounting and the engine's
    sequence counter are read into locals once and written back in
    ``finally``, so an invalid latency raises with every counter
    consistent for the copies already sent.
    """
    now = sim._now
    uplink_done = port[0]
    if uplink_done < now:
        uplink_done = now
    sample = port[1]
    state = port[2]
    if state is not None:
        bandwidth, queue_limit, target, interval, max_p, ramp = link
        link_transfer = size / bandwidth
        uniform = port[3]
        stats = port[4]
        stats[0] += len(dsts)
        delay_sum = stats[3]
        delay_max = stats[4]
    two_phase, callback = phase
    heap = sim._heap
    seq = sim._seq
    # The local copy not pushed yet: its time (-1.0 before the first) and
    # its destination, the list of destinations whose copies tied with
    # it, or None while every copy of the group is ignored.
    pending_time = -1.0
    pending: Any = None
    tail = codel = queued = 0
    try:
        for dst in dsts:
            uplink_done += transfer
            at = uplink_done
            if state is not None:
                done = link_enqueue(
                    state, at, link_transfer, queue_limit, target, interval, max_p, ramp, uniform
                )
                if done < 0.0:
                    if done == LINK_DROP_TAIL:
                        tail += 1
                    else:
                        codel += 1
                    continue
                wait = done - link_transfer - at
                if wait > 0.0:
                    delay_sum += wait
                    if wait > delay_max:
                        delay_max = wait
                    queued += 1
                at = done
            event_time = at + sample(src, dst)
            if not two_phase:
                event_time += transfer
            if not (now <= event_time < _INF):
                sim._reject_time(event_time)
            if owned is not None and dst not in owned:
                if two_phase:
                    egress.append(("a", event_time, src, dst, message, transfer))
                else:
                    egress.append(("d", event_time, src, dst, message))
                continue
            if ignored is not None and dst in ignored:
                dst = None
            if event_time == pending_time:
                if dst is None:
                    continue
                if pending is None:
                    pending = dst
                elif pending.__class__ is list:
                    pending.append(dst)
                else:
                    pending = [pending, dst]
                continue
            if pending_time >= 0.0:
                if pending is not None:
                    if two_phase:
                        _heappush(
                            heap, (pending_time, seq, callback, src, message, pending, transfer)
                        )
                    else:
                        _heappush(heap, (pending_time, seq, callback, src, message, pending))
                seq += 1
            pending_time = event_time
            pending = dst
    finally:
        if pending_time >= 0.0:
            if pending is not None:
                if two_phase:
                    _heappush(heap, (pending_time, seq, callback, src, message, pending, transfer))
                else:
                    _heappush(heap, (pending_time, seq, callback, src, message, pending))
            seq += 1
        port[0] = uplink_done
        if state is not None:
            stats[1] += tail
            stats[2] += codel
            stats[3] = delay_sum
            stats[4] = delay_max
            stats[5] += queued * size
        sim._seq = seq
        if len(heap) > sim._peak_heap:
            sim._peak_heap = len(heap)
    return tail + codel
