"""Core-engine benchmark: events/sec of the canonical dissemination run.

Unlike the figure benches, this one measures the *simulator* rather than
the paper: it drives the canonical enhanced-gossip scenario (including the
calibrated background traffic) at a sweep of organization sizes, reports
events/sec, wall time, peak heap size and the batched-vs-naive event
count, and asserts three invariants:

* determinism — the committed golden metrics are reproduced bit-for-bit
  and sit within the PR-1 reference tolerance;
* event reduction — the timer wheel + aggregated background cut at least
  ``EVENT_REDUCTION_FLOOR`` (30%) of the naive engine's events at every
  size (deterministic counts, exact gate);
* throughput — events/sec stays within 20% of the committed
  ``BENCH_core.json`` baseline (the same check ``scripts/perf_gate.py``
  runs standalone).
"""

import json
import os

from benchmarks.conftest import run_once
from repro.metrics.report import format_table
from repro.perf import (
    check_determinism,
    check_event_reduction,
    check_reference_tolerance,
    compare_bench,
    run_core_benchmark,
    run_recovery_benchmark,
)

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_core.json")


def test_core_engine(benchmark, full_scale):
    sizes = (50, 100, 250, 500, 1000) if full_scale else (50, 100)

    def measure():
        return (
            run_core_benchmark(sizes=sizes, repeats=2),
            run_recovery_benchmark(repeats=2),
        )

    results, recovery = run_once(benchmark, measure)
    results = list(results) + [recovery]

    print()
    print(
        format_table(
            ["scenario", "n", "TTL", "events", "naive", "reduction", "wall (s)", "events/s", "peak heap"],
            [
                [
                    r.scenario,
                    r.n_peers,
                    r.ttl,
                    r.events,
                    r.naive_events,
                    f"{r.event_reduction:.1%}",
                    f"{r.wall_time_s:.3f}",
                    f"{r.events_per_sec:,.0f}",
                    r.peak_heap_size,
                ]
                for r in results
            ],
            title="Core engine throughput (canonical dissemination + background, crash recovery)",
        )
    )

    mismatches = check_determinism()
    assert not mismatches, f"determinism contract violated: {mismatches}"
    drift = check_reference_tolerance()
    assert not drift, f"golden metrics drifted from the PR-1 reference: {drift}"

    reduction_failures = check_event_reduction(results)
    assert not reduction_failures, (
        f"timer-wheel event reduction below floor: {reduction_failures}"
    )

    with open(BENCH_JSON, encoding="utf-8") as handle:
        committed = json.load(handle)
    dissemination = [r for r in results if r.scenario == "dissemination"]
    current = {
        "results": [
            {"n_peers": r.n_peers, "events_per_sec": r.events_per_sec}
            for r in dissemination
        ],
        "recovery_results": [
            {"n_peers": r.n_peers, "events_per_sec": r.events_per_sec}
            for r in results
            if r.scenario == "recovery"
        ],
    }
    committed["results"] = [
        point for point in committed["results"]
        if point["n_peers"] in {r.n_peers for r in dissemination}
    ]
    failures = compare_bench(current, committed, threshold=0.20)
    assert not failures, f"throughput regression vs BENCH_core.json: {failures}"
