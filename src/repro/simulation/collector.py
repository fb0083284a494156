"""Keep the cyclic collector off a deployment it cannot free.

A built deployment is a few hundred thousand tracked objects that stay
alive for the whole run, and a run makes next to no cyclic garbage (peak
RSS with the collector off for a whole run is within 1.5 MB on every
benchmark workload). Left alone, the collector re-walks that live graph at
every threshold crossing: 0.28-0.39 s of a 3000-peer run's 1.6-2.2 CPU
seconds, spent in no layer the per-layer table can name
(docs/performance.md, "Collector time").

One scope, no parameters, for the code that owns a run
(:func:`deployment`): one full collection on the way in (what earlier runs
left behind must not be frozen along), paused while it builds and starts,
then — ``built()`` — everything alive is moved to the permanent generation
*before* the collector is switched back on, so the collections that go on
during the event loop (they find nothing: the loop allocates no cycles)
walk only what the loop allocates. Enabling
first would make the very next allocation run a young pass over the whole
unpromoted deployment, which is most of the cost this module exists to
remove: a pause without the freeze was measured inside a bare
``build_network`` and gave back in the loop what it saved in the build,
so ``build_network`` has no scope of its own. The caller's collector state
is restored on the way out, also when the run raises.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def deployment() -> Iterator[Callable[[], None]]:
    """Scope of one run: paused until the yielded ``built()`` is called,
    frozen from then until the block exits.

    A caller who disabled the collector keeps it disabled throughout, and
    a caller holding a freeze of their own (``gc.get_freeze_count() > 0``
    at entry) keeps it: ``gc.unfreeze()`` cannot tell their objects from
    ours, so such a run is only paused while it builds.
    """
    was_enabled = gc.isenabled()
    freezes = was_enabled and gc.get_freeze_count() == 0
    if freezes:
        # Freezing hides what is alive now from every collection of the
        # loop, garbage included, and between the runs of a sweep no full
        # collection comes by itself (paused while building, frozen while
        # looping): uncollected, each run's dropped deployment would
        # outlive every later run. One pass now, over the smallest heap
        # this run will see (4-5 ms in a fresh process).
        gc.collect()

    def built() -> None:
        if freezes:
            gc.freeze()
        if was_enabled:
            gc.enable()

    gc.disable()
    try:
        yield built
    finally:
        if freezes:
            gc.unfreeze()
        if was_enabled:
            gc.enable()
