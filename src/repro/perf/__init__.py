"""The determinism gate of the simulation core.

:mod:`repro.perf.regression` holds the committed golden metrics
(``golden_metrics.json``), the checker that replays them bit-for-bit
(single-process or process-sharded) and the PR-1 reference tolerance that
gates every golden refresh; ``scripts/perf_gate.py`` is its CLI.
Performance itself is measured by ``bench/run.py`` against
``BENCHMARK.json``, not here.
"""

from repro.perf.regression import (
    EVENT_REDUCTION_FLOOR,
    GOLDEN_METRICS,
    GOLDEN_PATH,
    GOLDEN_SCENARIOS,
    NAIVE_ENGINE_EVENTS,
    PR1_REFERENCE_METRICS,
    SHARD_VARIANT_KEYS,
    check_determinism,
    check_reference_tolerance,
    update_golden,
)

__all__ = [
    "EVENT_REDUCTION_FLOOR",
    "GOLDEN_METRICS",
    "GOLDEN_PATH",
    "GOLDEN_SCENARIOS",
    "NAIVE_ENGINE_EVENTS",
    "PR1_REFERENCE_METRICS",
    "SHARD_VARIANT_KEYS",
    "check_determinism",
    "check_reference_tolerance",
    "update_golden",
]
