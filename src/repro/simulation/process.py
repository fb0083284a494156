"""Light-weight process (actor) base class.

A :class:`Process` is anything with an identity that lives on the simulator
and exchanges messages through a network: Fabric peers, orderers, clients.
It standardizes access to the clock, to named RNG streams scoped to the
process, and to timer management so processes can be shut down cleanly
(used by the fault-injection layer).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple, Union

from repro.simulation._core.engine import SimulationError, Simulator
from repro.simulation._core.wheel import WheelTimer
from repro.simulation.random import Buffered, RandomStreams
from repro.simulation.timers import PeriodicTimer

RecurringTimer = Union[PeriodicTimer, WheelTimer]


# The liveness guards of Process.after's flat entries, read at fire time.
def _fire_one(process: "Process", callback: Callable[[Any], Any], arg: Any) -> None:
    if process._alive:
        callback(arg)


def _fire_two(process: "Process", callback: Callable[[Any, Any], Any], a: Any, b: Any) -> None:
    if process._alive:
        callback(a, b)


def _fire(process: "Process", callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    if process._alive:
        callback(*args)


class Process:
    """Base class for simulated actors.

    Args:
        sim: shared simulator.
        name: globally unique process name (e.g. ``"peer-17"``).
        streams: the experiment's random stream registry; the process draws
            from streams namespaced by its own name.
    """

    # Slotted for the one subclass built per node (Peer); the others keep
    # an instance dict by not declaring slots of their own.
    __slots__ = ("sim", "name", "_streams", "_timers", "_alive")

    def __init__(self, sim: Simulator, name: str, streams: RandomStreams) -> None:
        self.sim = sim
        self.name = name
        self._streams = streams
        # The recurring timers this process registered (made at the first).
        self._timers: Optional[List[RecurringTimer]] = None
        self._alive = True

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim._now  # friend access: one property call, not two

    @property
    def alive(self) -> bool:
        """False after :meth:`shutdown` (or a simulated crash)."""
        return self._alive

    def rng(self, purpose: str) -> Buffered:
        """The deterministic stream scoped to this process and ``purpose``:
        a :class:`~repro.simulation.random.Buffered` stream, its seed and
        next few words, timed by this process's simulator, until it draws
        fast enough to be promoted to a live generator.

        The first call seeds it, so call this where the first draw
        happens, never from a constructor: components bind it through
        :func:`repro.simulation.random.first_draw`, which lets a promotion
        rebind the component to the live generator.
        """
        return self._streams.buffered(f"{self.name}:{purpose}", self.sim)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a one-shot callback, skipped if the process has died.

        Like every scheduled event, it cannot be taken back: a one-shot
        that may become moot checks its own state when it fires.

        The entry is flat: ``(time, seq, fire, process, callback, arg)``,
        or ``..., a, b)`` for two arguments, on the engine's six- and
        seven-slot path, so a pending one-shot holds no argument tuple and
        no bound guard of its own (other arities carry their tuple).
        """
        sim = self.sim
        time = sim._now + delay
        if len(args) == 1:
            sim.schedule_delivery(time, _fire_one, self, callback, args[0])
        elif len(args) == 2:
            sim.schedule_delivery(time, _fire_two, self, callback, *args)
        else:
            sim.schedule_delivery(time, _fire, self, callback, args)

    def every(
        self,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
    ) -> RecurringTimer:
        """Register a periodic timer owned by this process.

        The registration lands on the simulator's shared timer wheel:
        same-tick firings across the whole deployment coalesce into single
        engine events, and :meth:`shutdown` stops the registration in
        O(1) without touching the event heap. A period the wheel does not
        support (sub-tick, as for high-rate client drivers, off the tick
        grid, or of one horizon or more) or a first delay beyond its
        horizon falls back to the naive one-event-per-tick
        :class:`PeriodicTimer`.

        The timer calls ``callback`` itself, with no liveness guard around
        it: a process is dead only after :meth:`shutdown`, which stops
        every timer it registered, and a stopped timer is skipped before
        its callback. Registering on a dead process raises
        :class:`SimulationError`.
        """
        if not self._alive:
            raise SimulationError(f"{self.name} is not alive: cannot register a periodic timer")
        sim = self.sim
        wheel = sim.wheel
        timer: RecurringTimer
        if wheel.supports_period(period) and wheel.supports_delay(initial_delay):
            timer = wheel.every(period, callback, initial_delay=initial_delay)
        else:
            timer = PeriodicTimer(sim, period, callback, initial_delay=initial_delay)
        if self._timers is None:
            self._timers = [timer]
        else:
            self._timers.append(timer)
        return timer

    def shutdown(self) -> None:
        """Stop all timers and mark the process dead (simulated crash)."""
        self._alive = False
        if self._timers is not None:
            for timer in self._timers:
                timer.stop()
            self._timers = None

    def restart(self) -> None:
        """Mark the process alive again; subclasses re-arm their timers."""
        self._alive = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
