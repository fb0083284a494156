"""Periodic timers on top of the event engine.

Gossip components are driven by repeating timers (pull every ``t_pull``,
recovery every ``t_recovery``, membership heart-beats...), each started at
a random phase of its own so that 100 peers do not all fire in the same
instant. The :class:`PeriodicTimer` wraps the rescheduling plumbing. It
costs one engine event per tick; the process layer uses it only for the
periods and first delays the shared :class:`~repro.simulation.TimerWheel`
cannot carry (sub-tick, off the tick grid, or beyond the wheel's horizon),
and the wheel's tests use it as their oracle.
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
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        initial_delay: Optional[float] = None,
    ) -> None:
        _require_period(period)
        _require_initial_delay(initial_delay)
        self._sim = sim
        self._period = period
        self._callback = callback
        self._stopped = False
        self._ticks = 0
        sim.schedule(period if initial_delay is None else initial_delay, self._tick)

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

    def _tick(self) -> None:
        if self._stopped:
            return
        self._ticks += 1
        self._callback()
        if not self._stopped:
            self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        """Stop the timer. The pending tick still fires, as a no-op: a
        scheduled event is final."""
        self._stopped = True
