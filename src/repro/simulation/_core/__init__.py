"""The engine core: every class on the per-event hot path, in one module.

The :class:`Simulator` event heap, the :class:`TimerWheel` tick cascade,
the :class:`TrafficMonitor` counter updates, the inlined Kinderman-Monahan
latency kernels, the bottleneck-link admission kernel and the per-copy
fan-out loop of the network's send paths live together here so that
everything bound by the determinism contract below has one definition and
one import path; the layers above (network, gossip, fabric, metrics)
build on it.

Determinism contract
--------------------

Reproducibility is bit-for-bit: with a fixed seed, two runs execute the
exact same events in the exact same order at the exact same times, and all
derived metrics (latency samples, byte counts) are equal as floats. Ties on
the event time are broken by the scheduling sequence number. Any refactor
of this module must preserve (a) the ``(time, seq)`` ordering, (b) the
assignment of sequence numbers in scheduling order, (c) the relative order
of callback execution and clock advancement, and (d) the RNG consumption
order of the latency kernels. The checker in :mod:`repro.perf.regression`
asserts this contract against committed golden metrics, single-process
and sharded.

Heap layout
-----------

Every heap entry is one immutable tuple, built once when the event is
scheduled and dropped by reference count when it has run::

    (time, seq, callback, args)                               # schedule, schedule_at, schedule_call
    (time, seq, callback, src, message, target)               # a delivery
    (time, seq, callback, src, message, target, transfer)     # a two-phase arrival
    (time, seq, fire, process, callback, arg[, arg])          # Process.after

A delivery (pushed by :func:`fan_out` and
:meth:`Simulator.schedule_delivery`) carries its arguments in the entry
itself, so an in-flight message costs one tuple, not two; the run loop
calls it as ``callback(src, message, target[, transfer])``. A process's
one-shot rides the same six- and seven-slot path: ``fire`` is a
module-level liveness guard that calls ``callback(arg[, arg])``.

``heapq`` compares entries with C-level tuple comparison: ``time`` first,
then the monotonically increasing ``seq``, which is unique, so the
comparison never reaches the callback. A scheduled event is final: no
handle is returned and nothing takes an entry back, so the run loop runs
every entry it pops and ``pending_events`` is the heap's length. A
one-shot that may have become moot checks its own state when it fires
(the orderer's batch timeout carries its batch number); a recurring timer
stops through its own flag (:meth:`WheelTimer.stop`). There is no free
list: a recycled entry would have to be a mutable list, which costs a
second allocation and a pointer chase in every heap comparison.
"""

from __future__ import annotations

import random as _random
from array import array
from heapq import heappop as _heappop, heappush as _heappush
from math import ceil, exp as _exp, floor as _floor, log as _log, nextafter as _nextafter
from operator import itemgetter as _itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from collections import _count_elements  # type: ignore[attr-defined]

from repro.checks import require_finite

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on invalid scheduler usage (e.g. scheduling in the past)."""


class Simulator:
    """Heap-based deterministic discrete-event simulator.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run(until=100.0)

    All times are in simulated seconds. The simulator starts at time 0.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_running",
        "_events_executed",
        "_peak_heap",
        "_wheel",
    )

    _now: float
    _seq: int
    _heap: List[Tuple[Any, ...]]
    _running: bool
    _events_executed: int
    _peak_heap: int
    _wheel: Optional["TimerWheel"]

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap = []
        self._running = False
        self._events_executed = 0
        self._peak_heap = 0
        self._wheel = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of queued events: every heap entry is live."""
        return len(self._heap)

    @property
    def peak_heap_size(self) -> int:
        """Largest heap length observed (perf instrumentation)."""
        return self._peak_heap

    @property
    def wheel(self) -> "TimerWheel":
        """The simulator's shared :class:`TimerWheel`, created on demand.

        All recurring timers of a simulation share one wheel so that
        same-tick firings across processes coalesce into single events.
        """
        wheel = self._wheel
        if wheel is None:
            wheel = self._wheel = TimerWheel(self)
        return wheel

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.schedule_call(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        self.schedule_call(time, callback, args)

    def schedule_call(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        """Schedule ``callback(*args)`` at ``time`` with the arguments as
        one tuple: the four-slot entry, pushed with no ``*args`` packing
        (the timer wheel arms its slots through it)."""
        # ``not (now <= time < inf)`` is a single guard catching NaN
        # (comparisons are False), +/-inf and past times at once.
        if not (self._now <= time < _INF):
            self._reject_time(time)
        heap = self._heap
        _heappush(heap, (time, self._seq, callback, args))
        self._seq += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def schedule_delivery(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fast-path schedule of ``callback(*args)`` for exactly three or
        four ``args``, carried in the entry itself: the six- or seven-slot
        entry of :func:`fan_out`, for the network's deliveries
        (``src, message, target[, transfer]``) scheduled outside it and
        for ``Process.after``'s one-shots (``process, callback, arg[,
        arg]``)."""
        if not (self._now <= time < _INF):
            self._reject_time(time)
        heap = self._heap
        _heappush(heap, (time, self._seq, callback, *args))
        self._seq += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def _reject_time(self, time: float) -> None:
        if time != time or time == _INF:
            raise SimulationError(f"invalid event time: {time}")
        raise SimulationError(
            f"cannot schedule at t={time} before current time t={self._now}"
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the next event would fire strictly after this
                time; the clock is then advanced to ``until``. ``None`` runs
                until the queue drains.
            max_events: safety valve; raise :class:`SimulationError` if more
                than this many events execute.

        Returns:
            The simulated time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # Executed-event accounting is batched into a local and flushed in
        # the ``finally`` block: one attribute read-modify-write per run()
        # instead of one per event, so ``events_executed`` is only exact
        # while the loop is not executing a callback.
        executed = 0
        heappop = _heappop
        heap = self._heap
        # One comparison per event instead of two None tests: absent
        # bounds become sentinels no event time / count can exceed.
        limit = _INF if until is None else until
        event_budget = _INF if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                event_time = entry[0]
                if event_time > limit:
                    break
                heappop(heap)
                self._now = event_time
                executed += 1
                slots = len(entry)
                if slots == 6:
                    entry[2](entry[3], entry[4], entry[5])
                elif slots == 7:
                    entry[2](entry[3], entry[4], entry[5], entry[6])
                else:
                    entry[2](*entry[3])
                if executed >= event_budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible runaway simulation"
                    )
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._events_executed += executed
            self._running = False

    def run_window(self, end: float) -> float:
        """Execute every event with time **strictly below** ``end``, then
        advance the clock to exactly ``end``.

        This is the conservative-window hook of the process-sharded
        executor (:mod:`repro.scenarios.sharded`): a shard runs the
        half-open window ``[now, end)``, leaving events at exactly ``end``
        pending, so that cross-shard records injected at the barrier —
        whose times are ``>= end`` by the lookahead guarantee — can still
        be scheduled (``now`` never passes them) and order among the
        window-edge events by scheduling sequence. Contrast :meth:`run`,
        whose ``until`` bound is inclusive: for floats, ``t >= end`` is
        exactly ``t > nextafter(end, -inf)``, so the window is :meth:`run`
        up to the largest float below ``end``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if end < self._now:
            raise SimulationError(
                f"cannot run a window ending at t={end} before current time t={self._now}"
            )
        self.run(until=_nextafter(end, -_INF))
        self._now = end
        return end

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} pending={len(self._heap)}>"


# ---------------------------------------------------------------------------
# Timer wheel (see repro/simulation/timerwheel.py for the design discussion)
# ---------------------------------------------------------------------------

DEFAULT_TICKS_PER_SECOND = 20
DEFAULT_RING_TICKS = 512

# Slots sort armed entries by arming sequence before firing; the seq is
# unique, so keying on it alone reproduces full-tuple ordering without
# ever comparing WheelTimer objects.
_ARM_ORDER = _itemgetter(0)


def _require_period(period: float) -> None:
    # ``not (0 < period < inf)`` also refuses NaN, on which the slot
    # arithmetic would raise a bare ValueError.
    if not (0 < period < _INF):
        raise SimulationError(f"timer period must be positive and finite, got {period}")


def _require_initial_delay(initial_delay: Optional[float]) -> None:
    if initial_delay is not None and not (0 <= initial_delay < _INF):
        raise SimulationError(f"initial_delay must be finite and >= 0, got {initial_delay}")


class WheelTimer:
    """Handle for one recurring registration on a :class:`TimerWheel`.

    API-compatible with :class:`~repro.simulation.timers.PeriodicTimer`
    (``ticks``, ``running``, ``period``, ``stop``) so processes can hold
    either interchangeably.
    """

    __slots__ = ("_wheel", "_period", "_callback", "_jitter", "_stopped", "_ticks")

    _wheel: "TimerWheel"
    _period: float
    _callback: Callable[[], Any]
    _jitter: Optional[Callable[[], float]]
    _stopped: bool
    _ticks: int

    def __init__(
        self,
        wheel: "TimerWheel",
        period: float,
        callback: Callable[[], Any],
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        self._wheel = wheel
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        self._ticks = 0

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    @property
    def period(self) -> float:
        return self._period

    def stop(self) -> None:
        """Stop the timer: O(1), no heap entry is touched.

        The slot the timer sits in fires regardless (it may be shared) and
        skips stopped entries; the registration is dropped there.
        """
        if not self._stopped:
            self._stopped = True
            self._wheel._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "stopped" if self._stopped else "running"
        return f"<WheelTimer period={self._period} ticks={self._ticks} {state}>"


class TimerWheel:
    """Two-level (ring + overflow) timer wheel over a :class:`Simulator`.

    Args:
        sim: the simulator to fire slots on.
        ticks_per_second: slot granularity; slot times are exact multiples
            of ``1 / ticks_per_second`` computed by division, so an integer
            ratio (20 -> 50 ms) keeps grid times bit-equal to literals.
        ring_ticks: level-0 window length in ticks; timers due further out
            park in the level-1 overflow and cascade in later.
    """

    _sim: Simulator
    _tps: int
    _tick: float
    _ring_ticks: int
    _ring: List[Optional[List[Tuple[int, WheelTimer]]]]
    _far: Dict[int, List[Tuple[int, int, WheelTimer]]]
    _armed_rotations: Set[int]
    _armed_slots: Set[int]
    _fired_through: int
    _arm_seq: int
    _live: int
    slot_events: int
    cascade_events: int

    def __init__(
        self,
        sim: Simulator,
        ticks_per_second: int = DEFAULT_TICKS_PER_SECOND,
        ring_ticks: int = DEFAULT_RING_TICKS,
    ) -> None:
        if ticks_per_second < 1:
            raise SimulationError(
                f"ticks_per_second must be a positive integer, got {ticks_per_second}"
            )
        if ring_ticks < 2:
            raise SimulationError(f"ring_ticks must be >= 2, got {ring_ticks}")
        self._sim = sim
        self._tps = ticks_per_second
        self._tick = 1.0 / ticks_per_second
        self._ring_ticks = ring_ticks
        # Level 0: ring of buckets, position = slot index % ring_ticks. A
        # bucket is a list of (arming_seq, timer); None when empty.
        self._ring = [None] * ring_ticks
        # Level 1: rotation -> [(slot_index, arming_seq, timer)].
        self._far = {}
        self._armed_rotations = set()
        self._armed_slots = set()
        self._fired_through = -1  # highest slot index already fired
        self._arm_seq = 0
        self._live = 0
        # Instrumentation: engine events consumed by the wheel.
        self.slot_events = 0
        self.cascade_events = 0

    # ----- public API -----------------------------------------------------

    @property
    def tick(self) -> float:
        """Slot granularity in seconds."""
        return self._tick

    @property
    def live_timers(self) -> int:
        """Registrations that are still running."""
        return self._live

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
    ) -> WheelTimer:
        """Register a recurring callback; mirrors :class:`PeriodicTimer`.

        Args:
            period: seconds between firings; must be positive. Periods
                shorter than one tick would alias to the tick — callers
                wanting sub-tick cadence (high-rate clients) should use the
                naive timer instead (see :meth:`supports_period`).
            callback: invoked with no arguments at every firing.
            initial_delay: delay before the first firing (default: one
                period). Quantized up to the next slot boundary.
            jitter: optional callable returning an additive offset applied
                independently to every firing before quantization.
        """
        _require_period(period)
        _require_initial_delay(initial_delay)
        timer = WheelTimer(self, period, callback, jitter)
        self._live += 1
        first = period if initial_delay is None else initial_delay
        if jitter is not None:
            first = max(0.0, first + jitter())
        self._insert(timer, self._sim.now + first)
        return timer

    def supports_period(self, period: float) -> bool:
        """Whether ``period`` can ride the wheel without rate distortion.

        Two classes of period are refused, and the process layer falls back
        to the naive per-event timer for them:

        * sub-tick periods, which would alias to the tick;
        * periods that are not a whole number of ticks — each firing
          re-quantizes *up* from its slot, so an off-grid period would be
          stretched toward the next boundary every cycle (0.26 s would
          effectively become 0.30 s), silently lowering calibrated rates.

        Grid-multiple periods re-quantize stably: the epsilon in
        :meth:`_slot_for` absorbs accumulated float dust, so the effective
        period is exact. A NaN or infinite period is not supported.
        """
        if not (self._tick <= period < _INF):
            return False
        ticks = round(period * self._tps)
        return ticks >= 1 and abs(period - ticks / self._tps) <= 1e-9 * period

    # ----- internals ------------------------------------------------------

    def _slot_for(self, time: float) -> int:
        """First slot index whose boundary is >= ``time``.

        The epsilon absorbs float dust from summed periods (e.g.
        0.15 + 0.15 = 0.30000000000000004) so accumulated grid-aligned
        schedules stay on their intended slot.
        """
        scaled = time * self._tps
        slot = ceil(scaled - 1e-9 * (abs(scaled) + 1.0))
        if slot <= self._fired_through:
            # The boundary already fired (registration from inside its own
            # slot, or a zero delay at a fired boundary): defer one tick.
            slot = self._fired_through + 1
        return slot

    def _insert(self, timer: WheelTimer, time: float) -> Optional[List[Tuple[int, WheelTimer]]]:
        """Bucket ``timer`` for its next firing.

        Returns the ring bucket the timer landed in (for the re-arm memo
        in :meth:`_fire_slot`), or None when it parked in the overflow.
        """
        slot = self._slot_for(time)
        seq = self._arm_seq
        self._arm_seq = seq + 1
        # The ring window starts at the first boundary that can still fire.
        # ``_fired_through`` alone goes stale when the wheel idles (every
        # timer stopped, clock advanced by other events): anchoring the
        # base at the current time keeps near registrations in the ring and
        # keeps cascade times in the future.
        base = self._fired_through + 1
        scaled_now = self._sim._now * self._tps
        now_slot = ceil(scaled_now - 1e-9 * (abs(scaled_now) + 1.0))
        if now_slot > base:
            base = now_slot
        if slot < base + self._ring_ticks:
            position = slot % self._ring_ticks
            bucket = self._ring[position]
            if bucket is None:
                bucket = self._ring[position] = [(seq, timer)]
            else:
                bucket.append((seq, timer))
            if slot not in self._armed_slots:
                self._armed_slots.add(slot)
                self._arm_slot(slot)
            return bucket
        else:
            rotation = slot // self._ring_ticks
            entries = self._far.get(rotation)
            if entries is None:
                self._far[rotation] = [(slot, seq, timer)]
            else:
                entries.append((slot, seq, timer))
            if rotation not in self._armed_rotations:
                self._armed_rotations.add(rotation)
                # The cascade runs half a tick before the rotation's first
                # boundary so cascaded entries are bucketed (and their
                # slots armed) before any direct slot event of the same
                # rotation can fire.
                cascade_at = (rotation * self._ring_ticks - 0.5) / self._tps
                now = self._sim._now
                if cascade_at < now:
                    cascade_at = now
                self._sim.schedule_call(cascade_at, self._cascade, (rotation,))
            return None

    def _arm_slot(self, slot: int) -> None:
        # The clock can sit a hair *past* the boundary when _slot_for's
        # epsilon mapped a dust-contaminated time back onto it (e.g. a
        # registration from a callback at B + 1e-13); firing "now" instead
        # of raising keeps the slot time semantics (slot/tps) intact.
        fire_at = slot / self._tps
        now = self._sim._now
        if fire_at < now:
            fire_at = now
        self._sim.schedule_call(fire_at, self._fire_slot, (slot,))

    def _cascade(self, rotation: int) -> None:
        """Move one overflow rotation into the ring (level 1 -> level 0)."""
        self._armed_rotations.discard(rotation)
        entries = self._far.pop(rotation, None)
        self.cascade_events += 1
        if not entries:
            return
        ring = self._ring
        ring_ticks = self._ring_ticks
        for slot, seq, timer in entries:
            if timer._stopped:
                continue
            position = slot % ring_ticks
            bucket = ring[position]
            if bucket is None:
                ring[position] = [(seq, timer)]
            else:
                bucket.append((seq, timer))
            if slot not in self._armed_slots:
                self._armed_slots.add(slot)
                self._arm_slot(slot)

    def _fire_slot(self, slot: int) -> None:
        self._armed_slots.discard(slot)
        self._fired_through = slot
        self.slot_events += 1
        position = slot % self._ring_ticks
        bucket = self._ring[position]
        if bucket is None:
            return
        self._ring[position] = None
        if len(bucket) > 1:
            # Arming order == the (time, seq) order of the naive heap for
            # tick-aligned schedules; cascaded entries may have appended
            # out of order relative to direct ones. Arming seqs are unique,
            # so keying on them alone is full-tuple order.
            bucket.sort(key=_ARM_ORDER)
        slot_time = slot / self._tps
        # Re-arm memo: every non-jittered timer of the same period re-arms
        # at the same ``slot_time + period``, i.e. into the same bucket.
        # Computing the target slot once per period (instead of once per
        # timer) skips the _slot_for math for the whole herd of same-period
        # emitters sharing a slot, while assigning arming sequence numbers
        # in exactly the order the per-timer path would.
        memo_period = -1.0
        memo_bucket: Optional[List[Tuple[int, WheelTimer]]] = None
        for seq, timer in bucket:
            if timer._stopped:
                continue
            timer._ticks += 1
            timer._callback()
            if timer._stopped:
                continue
            period = timer._period
            if timer._jitter is None:
                if period == memo_period and memo_bucket is not None:
                    arm_seq = self._arm_seq
                    self._arm_seq = arm_seq + 1
                    memo_bucket.append((arm_seq, timer))
                    continue
                memo_bucket = self._insert(timer, slot_time + period)
                memo_period = period
                continue
            self._insert(timer, max(slot_time, slot_time + period + timer._jitter()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TimerWheel tick={self._tick} live={self._live} "
            f"armed_slots={len(self._armed_slots)} far_rotations={len(self._far)}>"
        )


# ---------------------------------------------------------------------------
# Traffic accounting (docs/performance.md, "Bytes per (node, bin)")
# ---------------------------------------------------------------------------

# A node's dense byte row only grows contiguously by at most this many
# bins at a time; larger jumps (idle gaps, stray far-future timers) go to
# the sparse overflow dict instead, so a single record at a huge timestamp
# cannot force an O(timestamp) allocation. Both directions share a row,
# hence the rule.
_MAX_DENSE_GROWTH = 4096

# One bin of a row: its tx and its rx slot, zero.
_ZERO_BIN = bytes(16)


class TrafficTotals:
    """Whole-run aggregate counters."""

    messages: int
    bytes: int
    by_kind_messages: Dict[str, int]
    by_kind_bytes: Dict[str, int]

    def __init__(
        self,
        messages: int = 0,
        bytes: int = 0,
        by_kind_messages: Optional[Dict[str, int]] = None,
        by_kind_bytes: Optional[Dict[str, int]] = None,
    ) -> None:
        self.messages = messages
        self.bytes = bytes
        self.by_kind_messages = {} if by_kind_messages is None else by_kind_messages
        self.by_kind_bytes = {} if by_kind_bytes is None else by_kind_bytes

    def record(self, kind: str, size: int, copies: int = 1) -> None:
        """Add ``copies`` messages of ``size`` bytes each under ``kind``."""
        self.messages += copies
        self.bytes += size * copies
        self.by_kind_messages[kind] = self.by_kind_messages.get(kind, 0) + copies
        self.by_kind_bytes[kind] = self.by_kind_bytes.get(kind, 0) + size * copies

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficTotals):
            return NotImplemented
        return (
            self.messages == other.messages
            and self.bytes == other.bytes
            and self.by_kind_messages == other.by_kind_messages
            and self.by_kind_bytes == other.by_kind_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TrafficTotals(messages={self.messages}, bytes={self.bytes}, "
            f"by_kind_messages={self.by_kind_messages}, "
            f"by_kind_bytes={self.by_kind_bytes})"
        )


def _add_counts(target: Dict[Any, int], source: Dict[Any, int]) -> None:
    """``target[key] += count`` for every item of ``source``."""
    for key, count in source.items():
        target[key] = target.get(key, 0) + count


class TrafficMonitor:
    """Online per-node, per-direction byte binning.

    Layout. Each node has one dense ``array('q')`` row of bytes per bin,
    both directions interleaved: slot ``2 * bin`` holds what it sent in
    the bin, slot ``2 * bin + 1`` what it received (one row, not one per
    direction: a second array per node cost a 3,000-node run of three bins
    0.3 MB). Bins a row cannot reach by growing :data:`_MAX_DENSE_GROWTH`
    bins go to a sparse ``{(node, slot): bytes}`` dict instead. A *flow*
    is one ``(kind, wire size)``; it holds the whole-run copy counts of
    its senders and of its receivers, ``{node: copies}`` each, and one
    *cell* per open bin, the receivers' ``{node: copies}`` of that bin.

    One send resolves its flow and cell, counts its destinations into the
    cell in one C-level pass, and adds to the sender's copy count and tx
    slot. The first send into a bin later than the open one *folds* every
    open cell into its receivers' rx slots and its flow's receiver counts
    and drops it, so cells live only while their bin is open. Every
    reader folds first, then reads rows and counts only. All counters are
    integer sums, so the fold is exact in any order and no reader can
    tell when it ran. Memory is O(nodes x bins + flows x receivers), not
    O(bins x flows x receivers).

    Args:
        bin_width: width of the accounting bins in seconds, finite and
            > 0. The paper aggregates at 10 s for plotting; we bin at 1 s
            by default and re-aggregate in :mod:`repro.metrics.bandwidth`,
            which preserves the ability to compute both fine- and
            coarse-grained series.
    """

    __slots__ = (
        "bin_width",
        "_unit_bins",
        "_flows",
        "_open",
        "_open_bin",
        "_rows",
        "_over",
        "_last_time",
    )

    bin_width: float
    _unit_bins: bool
    _flows: Dict[str, Dict[int, Tuple[Dict[str, int], Dict[str, int], Dict[int, Dict[str, int]]]]]
    _open: List[Tuple[int, Dict[str, int], Dict[int, Dict[str, int]]]]
    _open_bin: int
    _rows: Dict[str, "array[int]"]
    _over: Dict[Tuple[str, int], int]
    _last_time: float

    def __init__(self, bin_width: float = 1.0) -> None:
        self.bin_width = bin_width
        require_finite(self, "bin_width", positive=True)
        self._unit_bins = bin_width == 1.0  # skip the division on the default
        # kind -> size -> ({source: copies sent}, {receiver: copies in the
        # folded bins}, {open bin: {receiver: copies}}). Plain dicts rather
        # than Counters: ``collections._count_elements`` (the C helper
        # behind Counter.update) takes its exact-dict fast path.
        self._flows = {}
        # (size, receiver counts, cells) of every flow that opened a cell
        # since the last fold, and the latest bin a cell was opened in.
        self._open = []
        self._open_bin = -1
        # node -> interleaved tx/rx bytes per bin, dense; (node, slot) ->
        # bytes for the sparse far-future bins.
        self._rows = {}
        self._over = {}
        self._last_time = 0.0

    def record(self, time: float, src: str, dst: str, kind: str, size: int) -> None:
        """Account one message of ``size`` bytes sent at ``time``."""
        self.record_multicast(time, src, (dst,), kind, size)

    def record_multicast(
        self, time: float, src: str, dsts: Sequence[str], kind: str, size: int
    ) -> None:
        """Account one ``size``-byte message from ``src`` to each of ``dsts``.

        Byte-exact equivalent of one :meth:`record` per destination
        (duplicate destinations count once each): the receivers are
        counted by one C-level ``Counter.update`` pass, the sender gets
        ``len(dsts)`` copies and ``size * len(dsts)`` bytes, so the cost is
        independent of the fanout width. A negative or NaN ``time`` and a
        negative ``size`` raise ``ValueError`` and record nothing.
        """
        if not dsts:
            return
        # floor, not int(): a time in (-1, 0) must miss every cell.
        bin_index = _floor(time) if self._unit_bins else _floor(time / self.bin_width)
        try:
            sent, _, cells = self._flows[kind][size]
            cell = cells[bin_index]
        except KeyError:
            sent, cell = self._open_cell(kind, size, bin_index)
        _count_elements(cell, dsts)
        copies = len(dsts)
        sent[src] = sent.get(src, 0) + copies
        try:
            self._rows[src][2 * bin_index] += size * copies
        except (KeyError, IndexError):
            self._grow_or_spill(self._rows, self._over, src, 2 * bin_index, size * copies)
        if time > self._last_time:
            self._last_time = time

    def _open_cell(
        self, kind: str, size: int, bin_index: int
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """The flow's senders and a new cell for ``bin_index``. A bin later
        than the open one first folds the open cells and extends the rows.
        The only place a size or a bin enters the monitor, hence where both
        are checked: the per-send path pays nothing for it."""
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        if bin_index < 0:
            raise ValueError(f"cannot record traffic at a negative time (bin {bin_index})")
        if bin_index > self._open_bin:
            self._fold()
            self._open_bin = bin_index
            self._extend_rows(self._rows, bin_index + 1)
        sent, received, cells = self._flow(kind, size)
        self._open.append((size, received, cells))
        cell = cells[bin_index] = {}
        return sent, cell

    def _flow(
        self, kind: str, size: int
    ) -> Tuple[Dict[str, int], Dict[str, int], Dict[int, Dict[str, int]]]:
        """The flow's senders, receivers and open cells, created as needed."""
        return self._flows.setdefault(kind, {}).setdefault(size, ({}, {}, {}))

    def _counts(self) -> Iterator[Tuple[str, int, Dict[str, int], Dict[str, int]]]:
        """``(kind, size, {source: copies}, {receiver: copies})`` of every
        flow; the receivers' counts cover the folded bins only."""
        for kind, sizes in self._flows.items():
            for size, (sent, received, _) in sizes.items():
                yield kind, size, sent, received

    def _fold(self) -> None:
        """Add every open cell into its receivers' rx slots and its flow's
        receiver counts, and drop it."""
        rows, over = self._rows, self._over
        for size, received, cells in self._open:
            for index, cell in cells.items():
                slot = 2 * index + 1
                for node, copies in cell.items():
                    try:
                        rows[node][slot] += size * copies
                    except (KeyError, IndexError):
                        self._grow_or_spill(rows, over, node, slot, size * copies)
                    received[node] = received.get(node, 0) + copies
            cells.clear()  # a flow listed twice finds nothing the second time
        self._open.clear()

    @staticmethod
    def _grow_or_spill(
        rows: Dict[str, "array[int]"],
        over: Dict[Tuple[str, int], int],
        node: str,
        slot: int,
        value: int,
    ) -> None:
        """Add ``value`` to ``slot`` of ``node``'s row, which is missing or
        ends before it: grow the row to the slot's bin if that adds at most
        :data:`_MAX_DENSE_GROWTH` bins, else count into the sparse ``over``."""
        row = rows.get(node)
        if row is None:
            row = rows[node] = array("q")
        grow = (slot >> 1) + 1 - (len(row) >> 1)
        if grow <= _MAX_DENSE_GROWTH:
            row.frombytes(_ZERO_BIN * grow)
            row[slot] = value
        else:
            key = (node, slot)
            over[key] = over.get(key, 0) + value

    @staticmethod
    def _extend_rows(rows: Dict[str, "array[int]"], n_bins: int) -> None:
        """Append a zero bin to every row that ends one bin short of
        ``n_bins``: while bins open one after another, one pass per bin
        instead of one ``IndexError`` per (node, bin). A row further behind
        (a node silent since) waits for :meth:`_grow_or_spill`, so a gap in
        the bins grows only the rows of the nodes that speak after it."""
        short = 2 * (n_bins - 1)
        for row in rows.values():
            if len(row) == short:
                row.frombytes(_ZERO_BIN)

    @staticmethod
    def _add_rows(target: Dict[str, "array[int]"], source: Dict[str, "array[int]"]) -> None:
        """Add every row of ``source`` into ``target`` slot by slot, copying
        the rows ``target`` lacks."""
        for node, theirs in source.items():
            row = target.get(node)
            if row is None:
                target[node] = array("q", theirs)
                continue
            if len(theirs) > len(row):
                row.frombytes(bytes(row.itemsize * (len(theirs) - len(row))))
            for slot, value in enumerate(theirs):
                if value:
                    row[slot] += value

    def merge_from(self, other: "TrafficMonitor") -> None:
        """Fold another monitor's accounting into this one, exactly.

        Every counter is an integer, so the merge is associative and
        bit-exact: merging the per-shard monitors of a process-sharded run
        reproduces the single-process monitor as long as each message was
        recorded on exactly one shard (sends record on the sender's owner
        shard — see docs/sharding.md). ``other`` stays usable and shares
        nothing with this monitor.
        """
        if other.bin_width != self.bin_width:
            raise ValueError(
                "cannot merge monitors with different bin widths "
                f"({other.bin_width} vs {self.bin_width})"
            )
        self._fold()
        other._fold()
        for kind, size, their_sent, their_received in other._counts():
            sent, received, _ = self._flow(kind, size)
            _add_counts(sent, their_sent)
            _add_counts(received, their_received)
        self._add_rows(self._rows, other._rows)
        _add_counts(self._over, other._over)
        if other._last_time > self._last_time:
            self._last_time = other._last_time

    @property
    def totals(self) -> TrafficTotals:
        """Whole-run totals, materialized lazily from the senders' copy
        counts: every message is counted exactly once on its sender's
        side."""
        totals = TrafficTotals()
        for kind, size, sent, _ in self._counts():
            totals.record(kind, size, sum(sent.values()))
        return totals

    @property
    def last_time(self) -> float:
        """Time of the most recent recorded message."""
        return self._last_time

    def nodes(self) -> List[str]:
        """All node names that sent or received at least one message."""
        self._fold()
        return sorted(self._rows)

    def node_totals(self, node: str) -> TrafficTotals:
        """Whole-run totals for one node (kinds prefixed ``tx:``/``rx:``)."""
        self._fold()
        totals = TrafficTotals()
        for kind, size, sent, _ in self._counts():
            if node in sent:
                totals.record("tx:" + kind, size, sent[node])
        for kind, size, _, received in self._counts():
            if node in received:
                totals.record("rx:" + kind, size, received[node])
        return totals

    def series(
        self,
        node: str,
        direction: str = "both",
        end_time: Optional[float] = None,
    ) -> List[float]:
        """Bytes per bin for ``node``; index i covers [i*w, (i+1)*w).

        Args:
            node: node name.
            direction: ``"tx"``, ``"rx"`` or ``"both"`` (sum).
            end_time: pad the series with zero bins up to this time, so idle
                tails (paper Fig. 6's 1500-2000 s window) appear explicitly.
        """
        if direction not in ("tx", "rx", "both"):
            raise ValueError(f"unknown direction {direction!r}")
        self._fold()
        horizon = self._last_time if end_time is None else end_time
        n_bins = int(horizon / self.bin_width) + 1
        values = [0.0] * n_bins
        parities = {"tx": (0,), "rx": (1,), "both": (0, 1)}[direction]
        row = self._rows.get(node)
        if row is not None:
            for parity in parities:
                for index, value in enumerate(row[parity : 2 * n_bins : 2]):
                    values[index] += value
        for (name, slot), value in self._over.items():
            if name == node and slot & 1 in parities and slot >> 1 < n_bins:
                values[slot >> 1] += value
        return values

    def rate_series(
        self, node: str, direction: str = "both", end_time: Optional[float] = None
    ) -> List[float]:
        """Same as :meth:`series` but in bytes/second."""
        return [value / self.bin_width for value in self.series(node, direction, end_time)]

    def average_rate(
        self, node: str, direction: str = "both", start: float = 0.0, end: Optional[float] = None
    ) -> float:
        """Average bytes/second for ``node`` over ``[start, end]``."""
        series = self.series(node, direction, end_time=end)
        end = self._last_time if end is None else end
        if end <= start:
            return 0.0
        first = int(start / self.bin_width)
        last = int(end / self.bin_width)
        window = series[first : last + 1]
        return sum(window) / (end - start) if window else 0.0

    def network_total_bytes(self) -> int:
        """Total bytes carried by the network over the whole run."""
        return self.totals.bytes


# ---------------------------------------------------------------------------
# Latency sampling kernels (see repro/net/latency.py for the model classes)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Link queueing kernel (see repro/net/link.py for the LinkModel config)
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Fan-out kernel (driven by repro/net/network.py; see docs/networking.md)
# ---------------------------------------------------------------------------


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
    # The local copy not pushed yet: its time and its destination, or the
    # list of destinations whose copies tied with it.
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
            if event_time == pending_time:
                if pending.__class__ is list:
                    pending.append(dst)
                else:
                    pending = [pending, dst]
                continue
            if pending is not None:
                if two_phase:
                    _heappush(heap, (pending_time, seq, callback, src, message, pending, transfer))
                else:
                    _heappush(heap, (pending_time, seq, callback, src, message, pending))
                seq += 1
            pending_time = event_time
            pending = dst
    finally:
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
