"""Keep the cyclic collector off a deployment it cannot free.

A built deployment is a few hundred thousand tracked objects that stay
alive for the whole run, and a run makes no cyclic garbage: a
``gc.collect()`` after the first-seed run of every registered scenario
finds nothing (``tests/scenarios/test_invariants.py``). Left on, the
collector re-walks that live graph at every threshold crossing, and every
pass it made in the loop collected 0 objects: 3.4% of the loop of a
3,000-peer run and 5.1% of a sharded 2,000-peer one, spent in no layer the
per-layer table can name (docs/performance.md, "Collector time" and
"Routes per protocol").

One scope, no parameters, for the code that owns a run
(:func:`deployment`): one full collection on the way in (what earlier runs
left behind must not be frozen along), then the collector stays off
through build, start and loop. ``built()`` moves everything alive to the
permanent generation: no pass runs while the collector is off, but
``gc.unfreeze()`` on the way out puts the deployment in the oldest
generation, so the first young pass after the run does not walk it.
The caller's collector state is restored on the way out, also when the
run raises.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def deployment() -> Iterator[Callable[[], None]]:
    """Scope of one run: the collector is off until the block exits, and
    the deployment is frozen from the yielded ``built()`` on.

    A caller who disabled the collector keeps it disabled, and a caller
    holding a freeze of their own (``gc.get_freeze_count() > 0`` at entry)
    keeps it: ``gc.unfreeze()`` cannot tell their objects from ours, so
    such a run is not frozen.
    """
    was_enabled = gc.isenabled()
    freezes = was_enabled and gc.get_freeze_count() == 0
    if freezes:
        # Freezing hides what is alive now from every later collection,
        # garbage included, and between the runs of a sweep no collection
        # comes by itself (the collector is off through each run):
        # uncollected, each run's dropped deployment would outlive every
        # later run. One pass now, over the smallest heap this run will
        # see (4-5 ms in a fresh process).
        gc.collect()

    def built() -> None:
        if freezes:
            gc.freeze()

    gc.disable()
    try:
        yield built
    finally:
        if freezes:
            gc.unfreeze()
        if was_enabled:
            gc.enable()
