"""Determinism checker for the committed golden metrics.

Determinism
-----------

The golden metrics live in ``golden_metrics.json`` next to this module and
were captured with the engine (timer wheel + aggregated background) on
fixed seeds. The contract is bit-for-bit: replaying a scenario must
reproduce every value exactly — event counts, latency statistics as exact
floats, byte totals. ``check_determinism()`` reruns the scenarios of
``GOLDEN_SCENARIOS``, single-process or process-sharded, and reports any
divergence; it is wired into the test suite and CI through
``scripts/perf_gate.py``, so any future "optimization" that silently
perturbs event order or RNG consumption fails immediately.

Reference tolerance
-------------------

Batching timers into wheel slots intentionally changed event interleaving,
so the goldens were re-captured after PR 2 — but the *measured physics*
(latency distributions, byte totals) must not drift: the PR-1 goldens are
frozen in ``PR1_REFERENCE_METRICS`` and ``check_reference_tolerance()``
asserts the current goldens sit within a small relative tolerance of them.
``scripts/perf_gate.py --update-goldens-only`` refuses to write goldens
that fail this check, which is what separates a legitimate baseline
refresh (new event interleaving, same physics) from masking a real
regression. The same check holds the goldens' event counts at least
``EVENT_REDUCTION_FLOOR`` below the frozen ``NAIVE_ENGINE_EVENTS``, so a
refresh cannot let the wheel/aggregation batching rot either.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.scenarios.runner import run_scenario
from repro.scenarios.sharded import run_scenario_sharded

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_metrics.json")

# Frozen goldens of the PR-1 engine (object-heap interleaving, naive
# timers, no background traffic in the scenarios). These are the reference
# that tolerance-checks every future golden refresh: interleaving may
# change, physics may not. Floats at full precision.
PR1_REFERENCE_METRICS: Dict[str, dict] = {
    "enhanced-n50-b6-seed1": {
        "events_executed": 8704,
        "final_time": 10.0,
        "latency_max": 0.1559637450083553,
        "latency_mean": 0.0918034633770091,
        "latency_p50": 0.10444591993462504,
        "latency_p95": 0.13678896680420938,
        "total_bytes": 53499552,
        "total_messages": 7899,
        "by_kind_bytes": {
            "BlockPush": 50162112,
            "OrdererBlock": 964608,
            "PushDigest": 2190240,
            "PushRequest": 50592,
            "StateInfo": 132000,
        },
    },
    "enhanced-n50-b6-seed2": {
        "events_executed": 8675,
        "final_time": 10.0,
        "latency_max": 0.16387056176106007,
        "latency_mean": 0.09095337782018395,
        "latency_p50": 0.10385482506078025,
        "latency_p95": 0.13594115099028334,
        "total_bytes": 53650616,
        "total_messages": 7869,
        "by_kind_bytes": {
            "BlockPush": 50322888,
            "OrdererBlock": 964608,
            "PushDigest": 2180256,
            "PushRequest": 50864,
            "StateInfo": 132000,
        },
    },
    "original-n30-b4-seed1": {
        "events_executed": 1895,
        "final_time": 11.0,
        "latency_max": 3.969228618316989,
        "latency_mean": 0.3078444580471394,
        "latency_p50": 0.08652314156388496,
        "latency_p95": 2.4359620035028438,
        "total_bytes": 55247776,
        "total_messages": 1115,
        "by_kind_bytes": {
            "BlockPush": 52091424,
            "OrdererBlock": 643072,
            "PullBlockRequest": 3920,
            "PullBlockResponse": 2250976,
            "PullDigestRequest": 69360,
            "PullDigestResponse": 101376,
            "StateInfo": 87648,
        },
    },
}

# Executed events of the retired naive engine (one heap event per timer
# firing, per-copy background sends) on the goldens that carry background
# traffic, measured at the last commit that could still run it (seed 1).
# Every golden's event count must stay EVENT_REDUCTION_FLOOR below them.
NAIVE_ENGINE_EVENTS: Dict[str, int] = {
    "enhanced-n50-b6-seed1-background": 18_896,
    "recovery-crash-n50-b6-seed1": 23_976,
    "wan-3-region-seed1": 9_341,
}
EVENT_REDUCTION_FLOOR = 0.30

# golden key -> (registered scenario name, seed). Every golden resolves
# through the scenario registry, so exactly the same declaration replays
# single-process and process-sharded (check_determinism(shards=N)).
# The background scenario has no PR-1 counterpart; it pins the determinism
# of the aggregated-emission path (wheel ticks, batched byte accounting,
# the bursts' NIC occupancy and latency-stream position; no delivery).
# The recovery scenario likewise has no PR-1 counterpart: it pins the
# fault-active branches — crash drops, state-info fanouts to dead peers,
# catch-up batches after recovery. The wan-3-region scenario pins the
# declarative-scenario stack end to end: region placement, the
# TopologyLatency pair resolution and its bind() RNG-order contract, and the multi-organization build.
GOLDEN_SCENARIOS: Dict[str, tuple] = {
    "enhanced-n50-b6-seed1": ("golden-enhanced-50", 1),
    "enhanced-n50-b6-seed2": ("golden-enhanced-50", 2),
    "original-n30-b4-seed1": ("golden-original-30", 1),
    "enhanced-n50-b6-seed1-background": ("golden-enhanced-50-bg", 1),
    "recovery-crash-n50-b6-seed1": ("golden-recovery-crash", 1),
    "wan-3-region-seed1": ("wan-3-region", 1),
    # Congestion goldens: pin the bottleneck-link physics — serialization
    # delay, bounded-queue tail drops, CoDel episodes and the
    # network:queue:<src> RNG stream (congested-uplink on a LAN;
    # fat-block-storm additionally pins the measured-RTT provider).
    "congested-uplink-seed1": ("congested-uplink", 1),
    "fat-block-storm-seed1": ("fat-block-storm", 1),
}

# The engine-internal executed-event count is the one golden metric that
# legitimately depends on the shard count: exact-tie delivery grouping
# (shared slot-delivery events) is shard-local, so a fanout spanning
# shards executes as more, smaller events while every delivery, byte and
# latency stays identical, and a shard elides only the ignored digests
# of its own receivers. The sharded gate therefore compares every
# golden key except this one. docs/sharding.md spells out the argument.
SHARD_VARIANT_KEYS = frozenset({"events_executed"})


def _load_golden(path: str = GOLDEN_PATH) -> Dict[str, dict]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# Loaded at import; refreshed by update_golden(). An empty dict (file
# missing) makes check_determinism fail with an actionable message.
GOLDEN_METRICS: Dict[str, dict] = _load_golden()


def check_determinism(
    shards: int = 1,
    mode: str = "auto",
    scenarios: Optional[Dict[str, tuple]] = None,
    golden: Optional[Dict[str, dict]] = None,
    diff: Optional[List[dict]] = None,
) -> List[str]:
    """Replay the golden scenarios; return human-readable mismatches.

    An empty list means the engine reproduces the committed golden metrics
    bit-for-bit. With ``shards > 1`` the replay is process-sharded and
    every metric except :data:`SHARD_VARIANT_KEYS` must still match — the
    merged delivery physics, traffic accounting and latency statistics of
    the sharded run are exactly those of the single-process run. A plan
    that silently degrades to single-process execution is itself a
    failure: a forced fallback would otherwise let the sharded gate go
    green while testing nothing sharded. So is a golden no table row
    replays: it pins nothing.

    When ``diff`` is given, each mismatch is also appended to it as a
    structured record (scenario, shards, key, golden, actual) — the
    machine-readable payload CI uploads as a debugging artifact.
    """
    if scenarios is None:
        scenarios = GOLDEN_SCENARIOS
    if golden is None:
        golden = GOLDEN_METRICS
    label = f" [shards={shards}]" if shards > 1 else ""
    mismatches: List[str] = []

    def report(name: str, key: str, expected, actual, line: str) -> None:
        mismatches.append(f"{name}{label}: {line}")
        if diff is not None:
            diff.append(
                {"scenario": name, "shards": shards, "key": key,
                 "golden": expected, "actual": actual}
            )

    for name, (scenario, seed) in scenarios.items():
        expected_metrics = golden.get(name)
        if expected_metrics is None:
            report(
                name, "golden", None, None,
                "no golden metrics committed — run `scripts/perf_gate.py "
                "--update-goldens-only` and commit golden_metrics.json",
            )
            continue
        run = run_scenario_sharded(scenario, seed=seed, shards=shards, mode=mode)
        if shards > 1 and run.plan.shards <= 1:
            reason = run.plan.forced_reason or "single-process"
            report(
                name, "plan", "sharded execution", reason,
                f"plan degraded to single-process execution ({reason}) — "
                "the sharded gate exercised nothing sharded",
            )
            continue
        current = run.snapshot()
        for key, expected in expected_metrics.items():
            if shards > 1 and key in SHARD_VARIANT_KEYS:
                continue
            actual = current.get(key)
            if actual != expected:
                report(
                    name, key, expected, actual,
                    f"{key} diverged — golden {expected!r}, current {actual!r}",
                )
    for name in sorted(golden.keys() - scenarios.keys() - GOLDEN_SCENARIOS.keys()):
        report(
            name, "scenario", "a GOLDEN_SCENARIOS row", None,
            "golden metrics committed but no GOLDEN_SCENARIOS row replays them",
        )
    return mismatches


def check_reference_tolerance(
    golden: Optional[Dict[str, dict]] = None,
    latency_tolerance: float = 0.20,
    traffic_tolerance: float = 0.05,
    minor_kind_tolerance: float = 0.30,
) -> List[str]:
    """Compare goldens against the frozen PR-1 reference, within tolerance.

    Event interleaving is allowed to differ (that is what a golden refresh
    is *for*); the measured physics is not: the simulated horizon must be
    identical, byte/message totals must sit within ``traffic_tolerance``
    and latency statistics within ``latency_tolerance`` of the PR-1
    values. The latency band is the wider one because the reference
    scenarios are small and heavy-tailed — the original module's mean is
    dominated by a handful of multi-second pull rescues, so re-timing the
    pull rounds legitimately moves it by ~15% without any change to the
    underlying physics.

    Per-kind byte totals use ``traffic_tolerance`` for bulk kinds (>= 10%
    of the scenario's reference bytes) and ``minor_kind_tolerance`` for the
    rest: a kind carrying a few dozen messages shifts by whole-message
    quanta under any interleaving change, while its aggregate contribution
    stays pinned by the total-byte check.

    Last, every golden named in :data:`NAIVE_ENGINE_EVENTS` must execute at
    least :data:`EVENT_REDUCTION_FLOOR` fewer events than the naive engine
    did on the same scenario — both counts are deterministic, so this is
    an exact check.
    """
    if golden is None:
        golden = GOLDEN_METRICS
    failures: List[str] = []

    def relative(key: str, current: float, reference: float, tolerance: float, name: str) -> None:
        if reference == 0:
            return
        drift = abs(current - reference) / abs(reference)
        if drift > tolerance:
            failures.append(
                f"{name}: {key} drifted {drift:.1%} from the PR-1 reference "
                f"({current!r} vs {reference!r}, tolerance {tolerance:.0%})"
            )

    for name, reference in PR1_REFERENCE_METRICS.items():
        current = golden.get(name)
        if current is None:
            failures.append(f"{name}: missing from the committed goldens")
            continue
        if current.get("final_time") != reference["final_time"]:
            failures.append(
                f"{name}: final_time changed ({current.get('final_time')!r} "
                f"vs {reference['final_time']!r})"
            )
        missing = [
            key
            for key in ("latency_max", "latency_mean", "latency_p50", "latency_p95",
                        "total_bytes", "total_messages", "by_kind_bytes")
            if key not in current
        ]
        if missing:
            failures.append(f"{name}: golden entry is missing metrics {missing}")
            continue
        for key in ("latency_max", "latency_mean", "latency_p50", "latency_p95"):
            relative(key, current[key], reference[key], latency_tolerance, name)
        for key in ("total_bytes", "total_messages"):
            relative(key, current[key], reference[key], traffic_tolerance, name)
        for kind, reference_bytes in reference["by_kind_bytes"].items():
            current_bytes = current["by_kind_bytes"].get(kind, 0)
            bulk = reference_bytes >= 0.10 * reference["total_bytes"]
            relative(f"by_kind_bytes[{kind}]", current_bytes, reference_bytes,
                     traffic_tolerance if bulk else minor_kind_tolerance, name)

    for name, naive_events in NAIVE_ENGINE_EVENTS.items():
        events = golden.get(name, {}).get("events_executed")
        if events is None:
            failures.append(f"{name}: no events_executed in the committed goldens")
        elif events > (1.0 - EVENT_REDUCTION_FLOOR) * naive_events:
            failures.append(
                f"{name}: {events} events is only {1.0 - events / naive_events:.1%} "
                f"below the naive engine's {naive_events} "
                f"(floor {EVENT_REDUCTION_FLOOR:.0%})"
            )
    return failures


def update_golden(path: str = GOLDEN_PATH) -> Dict[str, dict]:
    """Re-capture all golden scenarios and write them to ``path``.

    Refuses to write metrics that drift out of tolerance from the PR-1
    reference: a refresh is only legitimate when the interleaving changed
    but the physics did not.
    """
    captured = {
        name: run_scenario(scenario, seed=seed).snapshot()
        for name, (scenario, seed) in GOLDEN_SCENARIOS.items()
    }
    failures = check_reference_tolerance(golden=captured)
    if failures:
        raise ValueError(
            "refusing to update goldens — metrics drifted from the PR-1 "
            "reference: " + "; ".join(failures)
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(captured, handle, indent=2, sort_keys=True)
        handle.write("\n")
    GOLDEN_METRICS.clear()
    GOLDEN_METRICS.update(captured)
    return captured
