"""The :class:`TimerWheel`: every recurring timer of a simulation on one
wheel, so same-tick firings across processes coalesce into one event. Its
test oracle, and the fallback for a period or first delay it cannot hold,
is :class:`~repro.simulation.timers.PeriodicTimer`."""

from __future__ import annotations

from math import ceil
from typing import Any, Callable, List, Optional, Set

from repro.simulation._core.engine import _INF, SimulationError, Simulator

DEFAULT_TICKS_PER_SECOND = 20
DEFAULT_RING_TICKS = 512


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

    __slots__ = ("_wheel", "_period", "_callback", "_stopped", "_ticks")

    _wheel: "TimerWheel"
    _period: float
    _callback: Callable[[], Any]
    _stopped: bool
    _ticks: int

    def __init__(self, wheel: "TimerWheel", period: float, callback: Callable[[], Any]) -> None:
        self._wheel = wheel
        self._period = period
        self._callback = callback
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
    """One-level timer wheel (a ring of slots) over a :class:`Simulator`.

    Args:
        sim: the simulator to fire slots on.
        ticks_per_second: slot granularity; slot times are exact multiples
            of ``1 / ticks_per_second`` computed by division, so an integer
            ratio (20 -> 50 ms) keeps grid times bit-equal to literals.
        ring_ticks: the ring's length in ticks. A period must be shorter
            than the ring (:attr:`horizon`, 25.6 s by default) and a first
            delay at least one tick shorter; the process layer gives a
            longer one a :class:`~repro.simulation.timers.PeriodicTimer`.
    """

    _sim: Simulator
    _tps: int
    _tick: float
    _ring_ticks: int
    _ring: List[Optional[List[WheelTimer]]]
    _armed_slots: Set[int]
    _fired_through: int
    _last_delay: float
    _live: int
    slot_events: int

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
        # The ring of buckets, position = slot index % ring_ticks. A bucket
        # lists its slot's timers in arming order; None when empty.
        self._ring = [None] * ring_ticks
        self._armed_slots = set()
        self._fired_through = -1  # highest slot index already fired
        # The longest first delay the ring holds from any instant: one tick
        # under the horizon, as an off-grid delay is quantized up.
        self._last_delay = (ring_ticks - 1) / ticks_per_second
        self._live = 0
        # Instrumentation: engine events consumed by the wheel.
        self.slot_events = 0

    # ----- public API -----------------------------------------------------

    @property
    def tick(self) -> float:
        """Slot granularity in seconds."""
        return self._tick

    @property
    def horizon(self) -> float:
        """Seconds the ring spans: a period must be shorter, and a first
        delay at least one tick shorter."""
        return self._ring_ticks / self._tps

    @property
    def live_timers(self) -> int:
        """Registrations that are still running."""
        return self._live

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
    ) -> WheelTimer:
        """Register a recurring callback; mirrors :class:`PeriodicTimer`.

        Args:
            period: seconds between firings; must be positive and shorter
                than :attr:`horizon`. Periods shorter than one tick would
                alias to the tick — callers wanting sub-tick cadence
                (high-rate clients) should use the naive timer instead (see
                :meth:`supports_period`).
            callback: invoked with no arguments at every firing.
            initial_delay: delay before the first firing (default: one
                period), at most one tick under :attr:`horizon`. Quantized
                up to the next slot boundary.

        Raises:
            SimulationError: for a registration the ring cannot hold.
        """
        _require_period(period)
        _require_initial_delay(initial_delay)
        first = period if initial_delay is None else initial_delay
        if not (period < self.horizon and self.supports_delay(first)):
            raise SimulationError(
                f"the wheel holds periods under {self.horizon} s and first delays up to "
                f"{self._last_delay} s, got period {period}, initial_delay {initial_delay}"
            )
        timer = WheelTimer(self, period, callback)
        self._live += 1
        self._insert(timer, self._sim.now + first)
        return timer

    def supports_period(self, period: float) -> bool:
        """Whether ``period`` can ride the wheel without rate distortion.

        Three classes of period are refused, and the process layer falls
        back to the naive per-event timer for them:

        * sub-tick periods, which would alias to the tick;
        * periods that are not a whole number of ticks — each firing
          re-quantizes *up* from its slot, so an off-grid period would be
          stretched toward the next boundary every cycle (0.26 s would
          effectively become 0.30 s), silently lowering calibrated rates;
        * periods of one :attr:`horizon` or more, which the ring cannot
          hold.

        Grid-multiple periods re-quantize stably: the epsilon in
        :meth:`_slot_for` absorbs accumulated float dust, so the effective
        period is exact. A NaN or infinite period is not supported.
        """
        if not (self._tick <= period < _INF):
            return False
        ticks = round(period * self._tps)
        return (
            1 <= ticks < self._ring_ticks
            and abs(period - ticks / self._tps) <= 1e-9 * period
        )

    def supports_delay(self, initial_delay: Optional[float]) -> bool:
        """Whether a first delay fits the ring from any instant: None (one
        period, checked by :meth:`supports_period`) or at most one tick
        under :attr:`horizon`."""
        return initial_delay is None or initial_delay <= self._last_delay

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

    def _insert(self, timer: WheelTimer, time: float) -> List[WheelTimer]:
        """Bucket ``timer`` for its next firing and return the bucket (for
        the re-arm memo in :meth:`_fire_slot`).

        Every armed slot lies within one ring length of the first boundary
        that can still fire: a registration's first delay is at most
        ``ring_ticks - 1`` ticks from now and a re-arm's period under
        ``ring_ticks`` ticks from the firing slot, so no two armed slots
        share a position.
        """
        slot = self._slot_for(time)
        position = slot % self._ring_ticks
        bucket = self._ring[position]
        if bucket is None:
            bucket = self._ring[position] = [timer]
        else:
            bucket.append(timer)
        if slot not in self._armed_slots:
            self._armed_slots.add(slot)
            self._arm_slot(slot)
        return bucket

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

    def _fire_slot(self, slot: int) -> None:
        self._armed_slots.discard(slot)
        self._fired_through = slot
        self.slot_events += 1
        position = slot % self._ring_ticks
        bucket = self._ring[position]
        if bucket is None:
            return
        self._ring[position] = None
        slot_time = slot / self._tps
        # The bucket is in arming order, which is the (time, seq) order of
        # the naive heap for tick-aligned schedules: every timer is
        # appended when it is armed.
        # Re-arm memo: every timer of the same period re-arms at the same
        # ``slot_time + period``, i.e. into the same bucket. Computing the
        # target slot once per period (instead of once per timer) skips the
        # _slot_for math for the whole herd of same-period emitters sharing
        # a slot, and appends them in the order the per-timer path would.
        memo_period = -1.0  # no period matches it: the first re-arm sets the memo
        memo_bucket = bucket
        for timer in bucket:
            if timer._stopped:
                continue
            timer._ticks += 1
            timer._callback()
            if timer._stopped:
                continue
            period = timer._period
            if period == memo_period:
                memo_bucket.append(timer)
            else:
                memo_bucket = self._insert(timer, slot_time + period)
                memo_period = period

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TimerWheel tick={self._tick} live={self._live} "
            f"armed_slots={len(self._armed_slots)}>"
        )
