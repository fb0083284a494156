"""How fast the host runs Python right now, sampled while a repetition runs.

The shared host this benchmark runs on moves, every few seconds to every few
minutes, between a state in which the interpreter runs at full speed and
states in which the same code takes 1.3x to 2.4x as long (neighbours busy on
the sibling hardware thread or in the shared cache: CPU time grows with wall
time, steal stays near zero). Raw host times of identical code therefore
spread 20-50%, and no statistic over a run removes that, because whole runs
fall into one state.

``SpeedMeter`` measures the state instead. An interval timer interrupts the
repetition every ``INTERVAL`` seconds and times two fixed pieces of
interpreter work (frozen: later changes may not edit the benchmark):
``compute_kernel`` stays in the first-level cache and feels a busy sibling
thread; ``memory_kernel`` reads a 12 MB arena at scattered places and feels a
crowded shared cache. Each timing over its ``REFERENCE_S`` (the same kernel on
this host at its quietest) is a slowdown; their mean is taken as the host's
slowdown at that moment, and ``reference_seconds(start, end)`` divides every
stretch of the repetition by the slowdown measured around it: the seconds it
would have taken on the quiet reference host. Time spent in the handler
itself is left out. Neither kernel alone tracks the simulator (single
repetitions of one workload still spread 11-15% with the first, 8-13% with
the second); their mean leaves 4-9% (README.md, "Method and noise").
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from typing import List, Tuple

# Seconds (compute_kernel, memory_kernel) take on the reference host (2-core
# Xeon 2.1 GHz container, Python 3.11) at its quietest: the lowest twentieth
# of 80 000 samples over half an hour. They only fix the unit of the reported
# times; a change is judged against its parent measured with the same two.
REFERENCE_S = (0.00021, 0.00041)

_TABLE = list(range(256))
_SLOTS = {index: index for index in range(256)}
_ARENA_BYTES = 12 << 20


def _step(value: int) -> int:
    return (value * 5 + 1) & 255


def compute_kernel() -> int:
    """What the simulator's inner loops are made of, on 4 KB of data:
    bytecode dispatch, integer arithmetic, list and dict access, a Python
    call per iteration. Allocates no container, so it never triggers the
    garbage collector on the repetition's behalf."""
    table = _TABLE
    slots = _SLOTS
    step = _step
    total = 0
    for index in range(1200):
        key = step(index & 255)
        total += table[key] + slots[key]
        table[key] = total & 255
        slots[key] = index & 255
    return total


def memory_kernel(arena: bytearray, position: int) -> int:
    """1200 dependent reads scattered over ``arena``; returns where the next
    call goes on, so no call finds the previous one's lines in the cache."""
    size = len(arena)
    total = 0
    for _ in range(1200):
        position = (position * 1103515245 + 12345) % size
        total += arena[position]
    return position


class SpeedMeter:
    """Kernel timings along one repetition and the host time they imply."""

    INTERVAL = 0.020
    WINDOW = 6

    def __init__(self) -> None:
        self.began: List[float] = []    # handler entry
        self.ended: List[float] = []    # handler exit
        self.timings: List[Tuple[float, float]] = []   # (compute, memory) seconds
        self._arena = bytearray(b"\x01") * _ARENA_BYTES  # every page touched
        self._position = 12345
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        clock = time.perf_counter
        entered = clock()
        compute_kernel()
        between = clock()
        self._position = memory_kernel(self._arena, self._position)
        left = clock()
        self.began.append(entered)
        self.timings.append((between - entered, left - between))
        self.ended.append(clock())

    def start(self) -> None:
        for _ in range(16):
            # Let the interpreter specialise the kernels' bytecode first.
            compute_kernel()
            self._position = memory_kernel(self._arena, self._position)
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def slowdown(self, index: int) -> float:
        """Host slowdown over the stretch that ends at sample ``index``
        (``index == len``: the one after the last sample): per kernel, the
        median timing of the ``WINDOW`` samples around it over the reference;
        then the mean of the two. The median drops the sample in ten that a
        stray interrupt or a descheduled vCPU inflates; the host's states
        last seconds, the window 0.1 s."""
        low = max(0, min(index - self.WINDOW // 2, len(self.timings) - self.WINDOW))
        window = self.timings[low:low + self.WINDOW]
        return statistics.fmean(
            statistics.median(timing[kernel] for timing in window) / reference
            for kernel, reference in enumerate(REFERENCE_S)
        )

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken on the quiet reference
        host: each stretch between two samples divided by its slowdown, the
        handler's own time excluded."""
        total = 0.0
        # Stretch i runs from the exit of sample i-1 to the entry of sample i;
        # the last one, from the exit of the last sample on.
        samples = len(self.began)
        for index in range(bisect_right(self.began, start), samples + 1):
            opens = max(self.ended[index - 1], start) if index else start
            if opens >= end:
                break
            closes = min(self.began[index], end) if index < samples else end
            if closes > opens:
                total += (closes - opens) / self.slowdown(index)
        return total
