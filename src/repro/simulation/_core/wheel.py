"""The :class:`TimerWheel`: every recurring timer of a simulation on one
wheel, so same-tick firings across processes coalesce into one event. Its
test oracle and sub-tick fallback is
:class:`~repro.simulation.timers.PeriodicTimer`."""

from __future__ import annotations

from math import ceil
from operator import itemgetter as _itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.simulation._core.engine import _INF, SimulationError, Simulator

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
        # One flat five-slot entry (time, seq, _fire_slot, wheel, slot): no
        # bound method and no argument tuple per armed slot.
        fire_at = slot / self._tps
        now = self._sim._now
        if fire_at < now:
            fire_at = now
        self._sim.schedule_delivery(fire_at, TimerWheel._fire_slot, self, slot)

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
