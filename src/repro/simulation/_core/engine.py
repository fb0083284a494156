"""The event heap: :class:`Simulator` and :class:`SimulationError`.

Heap layout
-----------

Every heap entry is one immutable tuple, built once when the event is
scheduled and dropped by reference count when it has run::

    (time, seq, callback, args)                               # schedule, schedule_at, schedule_call
    (time, seq, fire_slot, wheel, slot)                       # a timer-wheel slot
    (time, seq, callback, src, message, target)               # a delivery
    (time, seq, callback, src, message, target, transfer)     # a two-phase arrival
    (time, seq, fire, process, callback, arg[, arg])          # Process.after

A delivery (pushed by :func:`~repro.simulation._core.kernels.fan_out` and
:meth:`Simulator.schedule_delivery`) carries its arguments in the entry
itself, so an in-flight message costs one tuple, not two; the run loop
calls it as ``callback(src, message, target[, transfer])``. A process's
one-shot rides the same six- and seven-slot path: ``fire`` is a
module-level liveness guard that calls ``callback(arg[, arg])``. An armed
wheel slot is the five-slot entry, run as ``fire_slot(wheel, slot)``.

``heapq`` compares entries with C-level tuple comparison: ``time`` first,
then the monotonically increasing ``seq``, which is unique, so the
comparison never reaches the callback. A scheduled event is final: no
handle is returned and nothing takes an entry back, so the run loop runs
every entry it pops and ``pending_events`` is the heap's length. A
one-shot that may have become moot checks its own state when it fires
(the orderer's batch timeout carries its batch number); a recurring timer
stops through its own flag
(:meth:`~repro.simulation._core.wheel.WheelTimer.stop`). There is no free
list: a recycled entry would have to be a mutable list, which costs a
second allocation and a pointer chase in every heap comparison.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from math import nextafter as _nextafter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # wheel.py imports this module; Simulator.wheel imports it at first use
    from repro.simulation._core.wheel import TimerWheel

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
            from repro.simulation._core.wheel import TimerWheel
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
        (:meth:`schedule` and :meth:`schedule_at` go through it)."""
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
        """Fast-path schedule of ``callback(*args)`` for exactly two, three
        or four ``args``, carried in the entry itself: the six- or
        seven-slot entry of :func:`fan_out`, for the network's deliveries
        (``src, message, target[, transfer]``) scheduled outside it and
        for ``Process.after``'s one-shots (``process, callback, arg[,
        arg]``), and the timer wheel's five-slot ``wheel, slot``."""
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
                elif slots == 5:
                    entry[2](entry[3], entry[4])
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
