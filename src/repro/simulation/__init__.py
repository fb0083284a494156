"""Discrete-event simulation substrate.

This package provides the deterministic, seedable discrete-event engine on
which the whole Fabric model runs: a heap-based scheduler whose scheduled
events are final (:class:`Simulator`) and the slot-batched one-level
:class:`TimerWheel`, in :mod:`~repro.simulation._core.engine` and
:mod:`~repro.simulation._core.wheel`; the naive one-event-per-tick
:mod:`repro.simulation.timers`; named deterministic random streams
(:mod:`repro.simulation.random`) and a light-weight process/actor base
class (:mod:`repro.simulation.process`).
"""

from repro.simulation._core.engine import SimulationError, Simulator
from repro.simulation._core.wheel import TimerWheel, WheelTimer
from repro.simulation.process import Process
from repro.simulation.random import RandomStreams
from repro.simulation.timers import PeriodicTimer

__all__ = [
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "TimerWheel",
    "WheelTimer",
]
