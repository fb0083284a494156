"""Periodic timers on top of the event engine.

Gossip components are driven by repeating timers (pull every ``t_pull``,
recovery every ``t_recovery``, membership heart-beats...). The
:class:`PeriodicTimer` wraps the rescheduling plumbing and supports optional
phase jitter so that 100 peers do not all fire in the same instant — matching
the unsynchronized clocks of a real deployment. It costs one engine event
per tick; the process layer uses it only for periods the shared
:class:`~repro.simulation.TimerWheel` cannot carry, and the wheel's tests
use it as their oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation._core.engine import Simulator
from repro.simulation._core.wheel import _require_initial_delay, _require_period


class PeriodicTimer:
    """Repeatedly invoke a callback with a fixed period.

    Args:
        sim: the simulator to schedule on.
        period: seconds between invocations; must be positive and finite.
        callback: invoked with no arguments at every tick.
        initial_delay: delay before the first tick, finite and >= 0.
            Defaults to one period.
        jitter: optional callable returning a (possibly random) additive
            offset applied independently to every tick, e.g. drawn from a
            seeded RNG stream. The effective delay is clamped at >= 0.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        _require_period(period)
        _require_initial_delay(initial_delay)
        self._sim = sim
        self._period = period
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        self._ticks = 0
        first = period if initial_delay is None else initial_delay
        self._schedule(first)

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

    def _schedule(self, delay: float) -> None:
        if self._jitter is not None:
            delay = max(0.0, delay + self._jitter())
        self._sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._ticks += 1
        self._callback()
        if not self._stopped:
            self._schedule(self._period)

    def stop(self) -> None:
        """Stop the timer. The pending tick still fires, as a no-op: a
        scheduled event is final."""
        self._stopped = True
