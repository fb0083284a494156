#!/usr/bin/env python
"""Perf-regression gate for the simulation core.

Runs the canonical core benchmark (dissemination workload plus calibrated
background traffic), checks the determinism contract, asserts the
timer-wheel/aggregation event-count reduction, and compares events/sec
against the committed ``BENCH_core.json``. Exits non-zero when metrics
diverge from the golden values, the reduction falls below the floor, or
throughput drops more than the threshold at any measured size.

Usage::

    PYTHONPATH=src python scripts/perf_gate.py                # full gate
    PYTHONPATH=src python scripts/perf_gate.py --update       # refresh baselines
    PYTHONPATH=src python scripts/perf_gate.py --update-goldens-only  # goldens only
    PYTHONPATH=src python scripts/perf_gate.py --determinism-only   # CI mode
    PYTHONPATH=src python scripts/perf_gate.py --determinism-only --shards 4
    PYTHONPATH=src python scripts/perf_gate.py --threshold 0.3
    PYTHONPATH=src python scripts/perf_gate.py --sizes 50,100 --skip-determinism

``--determinism-only --shards N`` replays every golden scenario
process-sharded across N workers and fails on any divergence from the
committed goldens (every metric except the engine-internal
``events_executed``, which legitimately depends on the shard count — see
docs/sharding.md). ``--diff-output PATH`` writes any golden-vs-actual
mismatches as JSON so CI can upload them as a debugging artifact.

``--update-goldens-only`` refreshes ``golden_metrics.json`` without
re-measuring throughput: on a noisy machine a legitimate golden refresh
must not rewrite ``BENCH_core.json`` with garbage events/sec points.

CI runs ``--determinism-only``: the bit-for-bit golden replay is
machine-independent, while events/sec on shared runners is noise — the
throughput comparison is meaningful only on a quiet, consistent machine.

When is ``--update`` legitimate?
--------------------------------

``--update`` rewrites **both** committed baselines: the events/sec points
in ``BENCH_core.json`` and the bit-for-bit goldens in
``src/repro/perf/golden_metrics.json``. Refreshing them is the *expected*
final step of a change that intentionally alters event interleaving or
cost — a scheduler refactor that reorders same-instant events, an
event-count optimization like the timer wheel, a deliberate scenario
change. It is **masking a regression** when used to silence a gate failure
whose diff you cannot explain: goldens that moved without an intentional
interleaving change mean the engine stopped being deterministic, and an
events/sec drop without a corresponding scenario/feature cost means the
hot path got slower.

Two guardrails enforce the distinction. First, ``--update`` re-validates
the freshly captured goldens against the frozen PR-1 reference metrics
(``repro.perf.regression.PR1_REFERENCE_METRICS``) and *refuses to write*
if latency/byte figures drifted beyond tolerance — interleaving may
change, physics may not. Second, the update is loud: commit the refreshed
JSON together with the change that explains it, and state the reason in
the commit message. If you cannot name the mechanism that moved the
numbers, do not update — bisect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.perf import (  # noqa: E402 (path bootstrap above)
    EVENT_REDUCTION_FLOOR,
    check_determinism,
    check_event_reduction,
    check_reference_tolerance,
    check_sharded_determinism,
    compare_bench,
    run_congestion_benchmark,
    run_core_benchmark,
    run_recovery_benchmark,
    run_shard_scaling_benchmark,
    run_sweep_benchmark,
    update_golden,
    write_bench_json,
)
from repro.perf.profile import BENCH_SIZES  # noqa: E402

DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_core.json")


def _print_results(results) -> None:
    for result in results:
        reduction = (
            f"{result.event_reduction:>6.1%} fewer events"
            if result.event_reduction is not None
            else "reduction not measured"
        )
        label = "" if result.scenario == "dissemination" else f" [{result.scenario}]"
        print(
            f"n={result.n_peers:>4}{label}  {result.events_per_sec:>12,.0f} events/s"
            f"  (events={result.events}, naive={result.naive_events},"
            f" {reduction}, peak heap={result.peak_heap_size})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, help="committed BENCH_core.json")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional events/sec drop (default 0.20)")
    parser.add_argument("--reduction-floor", type=float, default=EVENT_REDUCTION_FLOOR,
                        help="required batched-vs-naive event reduction "
                             f"(default {EVENT_REDUCTION_FLOOR})")
    parser.add_argument("--sizes", default=None,
                        help="comma-separated organization sizes (default: the baseline's)")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats per size")
    parser.add_argument("--update", action="store_true",
                        help="rewrite BENCH_core.json and golden_metrics.json with this "
                             "run instead of gating (see module docstring for when this "
                             "is legitimate)")
    parser.add_argument("--update-goldens-only", action="store_true",
                        help="refresh golden_metrics.json (with the PR-1 tolerance "
                             "guardrail) without re-measuring throughput — the right "
                             "refresh on a noisy machine, where --update would rewrite "
                             "BENCH_core.json with garbage events/sec")
    parser.add_argument("--skip-determinism", action="store_true",
                        help="skip the golden-metric determinism check")
    parser.add_argument("--determinism-only", action="store_true",
                        help="run only the machine-independent checks (golden replay + "
                             "PR-1 tolerance + event reduction); skip the events/sec "
                             "comparison — the CI mode for shared runners")
    parser.add_argument("--shards", type=int, default=1,
                        help="replay the goldens process-sharded across N workers "
                             "(requires --determinism-only); the merged run must "
                             "reproduce every golden metric except events_executed")
    parser.add_argument("--shard-mode", choices=("auto", "processes", "inline"),
                        default="auto", help="shard execution mode for --shards")
    parser.add_argument("--diff-output", default=None, metavar="PATH",
                        help="write golden-vs-actual mismatches as JSON to PATH on "
                             "determinism failure (CI uploads it as an artifact)")
    parser.add_argument("--shard-bench", action="store_true",
                        help="with --update: re-measure the 10k-peer shard-scaling "
                             "section (several minutes; each worker rebuilds the full "
                             "deployment). Without it, --update carries the committed "
                             "section forward unchanged")
    args = parser.parse_args(argv)

    if args.update and args.determinism_only:
        parser.error(
            "--update with --determinism-only would shrink BENCH_core.json "
            "to the single CI-mode size; run --update without it"
        )
    if args.update and args.update_goldens_only:
        parser.error("--update already refreshes the goldens; drop one of the flags")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.shards > 1 and not args.determinism_only:
        parser.error("--shards requires --determinism-only (the sharded gate "
                     "replays goldens; throughput is measured single-process)")
    if args.shard_bench and not args.update:
        parser.error("--shard-bench only applies with --update (it re-measures "
                     "the committed shard-scaling section)")

    if args.update_goldens_only:
        try:
            golden = update_golden()
        except ValueError as error:
            print(f"GOLDEN UPDATE REFUSED: {error}")
            return 1
        print(f"golden metrics updated ({len(golden)} scenarios): "
              "src/repro/perf/golden_metrics.json (BENCH_core.json untouched)")
        return 0

    def report_failure(header, lines, diff):
        print(header)
        for line in lines:
            print(f"  - {line}")
        if args.diff_output and diff:
            with open(args.diff_output, "w", encoding="utf-8") as handle:
                json.dump({"failures": diff}, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"diff written to {args.diff_output}")

    if args.shards > 1:
        diff = []
        mismatches = check_sharded_determinism(
            shards=args.shards, mode=args.shard_mode, diff=diff
        )
        if mismatches:
            report_failure(
                f"sharded determinism contract VIOLATED (shards={args.shards}):",
                mismatches, diff,
            )
            return 1
        print("sharded determinism: OK (golden metrics reproduced bit-for-bit "
              f"across {args.shards} shard workers, events_executed excluded)")
        return 0

    if args.update:
        pass  # all writes happen after every failable gate below has run
    elif not args.skip_determinism:
        diff = []
        mismatches = check_determinism(diff=diff)
        if mismatches:
            report_failure("determinism contract VIOLATED:", mismatches, diff)
            return 1
        drift = check_reference_tolerance()
        if drift:
            print("golden metrics out of tolerance vs the PR-1 reference:")
            for line in drift:
                print(f"  - {line}")
            return 1
        print("determinism: OK (golden metrics reproduced bit-for-bit, "
              "within PR-1 reference tolerance)")

    if args.sizes is not None:
        try:
            sizes = tuple(int(part) for part in args.sizes.split(","))
        except ValueError:
            parser.error(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    elif args.determinism_only:
        sizes = (50,)  # one cheap point just to exercise the reduction gate
    elif args.update:
        # A refresh re-measures the harness's full matrix, so newly added
        # sizes land in the baseline instead of inheriting the old sweep.
        sizes = BENCH_SIZES
    elif os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as handle:
            sizes = tuple(
                point["n_peers"] for point in json.load(handle).get("results", [])
            )
    else:
        sizes = BENCH_SIZES

    repeats = 1 if args.determinism_only else args.repeats
    results = run_core_benchmark(sizes=sizes, repeats=repeats)
    recovery_results = []
    if not args.determinism_only:
        # The crash-fault recovery scenario rides along in full runs so the
        # gate covers the fault-active (guarded multicast) code paths too.
        recovery_results = [run_recovery_benchmark(repeats=repeats)]
    _print_results(list(results) + recovery_results)

    reduction_failures = check_event_reduction(
        list(results) + recovery_results, floor=args.reduction_floor
    )
    if reduction_failures:
        print("EVENT-REDUCTION GATE FAILED:")
        for line in reduction_failures:
            print(f"  - {line}")
        return 1

    if args.update:
        # The reduction gate above already passed; update_golden validates
        # the PR-1 tolerance before touching the file, so either both
        # baselines are rewritten or neither is.
        if args.sizes is not None:
            print(
                "WARNING: --update with --sizes rewrites BENCH_core.json with "
                f"ONLY n={sizes}; future gate runs derive their sweep from the "
                "baseline, so coverage of the other sizes is dropped"
            )
        try:
            golden = update_golden()
        except ValueError as error:
            print(f"GOLDEN UPDATE REFUSED: {error}")
            return 1
        print(f"golden metrics updated ({len(golden)} scenarios): "
              "src/repro/perf/golden_metrics.json")
        # Campaign throughput rides along in the refreshed baseline. The
        # parallel speedup is machine-dependent, so it is recorded for the
        # trajectory but never gated.
        sweep_result = run_sweep_benchmark()
        print(
            f"sweep [{sweep_result.scenario}] {sweep_result.seeds} seeds: "
            f"jobs=1 {sweep_result.wall_jobs1_s:.2f}s, "
            f"jobs={sweep_result.jobs} {sweep_result.wall_jobsN_s:.2f}s "
            f"({sweep_result.parallel_speedup:.2f}x, merged reports identical)"
        )
        baseline_eps = None
        shard_scaling = None
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as handle:
                committed = json.load(handle)
            baseline_eps = committed.get("baseline_events_per_sec")
            shard_scaling = committed.get("shard_scaling")
        if args.shard_bench:
            from dataclasses import asdict

            scaling_result = run_shard_scaling_benchmark()
            shard_scaling = asdict(scaling_result)
            for point in scaling_result.points:
                print(
                    f"shard-scaling n={scaling_result.n_peers} "
                    f"shards={point['shards']}: {point['events_per_sec']:,.0f} "
                    f"events/s (wall {point['wall_time_s']:.1f}s, merged "
                    "snapshot identical)"
                )
        elif shard_scaling is not None:
            print("shard-scaling section carried forward (re-measure with --shard-bench)")
        # Deterministic link physics, cheap to re-measure on every update
        # (never carried forward: the rows must match the current code).
        congestion = run_congestion_benchmark()
        for row in congestion["rows"]:
            print(
                f"congestion [{row['gossip']}] block={row['block_bytes']:,}B: "
                f"queue_delay={row['queue_delay_total_s']:.2f}s "
                f"drops={row['dropped_tail'] + row['dropped_codel']} "
                f"p95={row['latency_p95_s']:.3f}s"
            )
        write_bench_json(
            results,
            args.baseline,
            baseline_events_per_sec=baseline_eps and {
                int(n): eps for n, eps in baseline_eps.items()
            },
            recovery_results=recovery_results,
            sweep_result=sweep_result,
            shard_scaling=shard_scaling,
            congestion=congestion,
        )
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.determinism_only:
        print("determinism-only gate passed (event reduction >= "
              f"{args.reduction_floor:.0%} at n={sizes})")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update to create one")
        return 1
    with open(args.baseline, encoding="utf-8") as handle:
        committed = json.load(handle)
    current = {
        "results": [
            {"n_peers": result.n_peers, "events_per_sec": result.events_per_sec}
            for result in results
        ],
        "recovery_results": [
            {"n_peers": result.n_peers, "events_per_sec": result.events_per_sec}
            for result in recovery_results
        ],
    }
    committed["results"] = [
        point for point in committed["results"] if point["n_peers"] in set(sizes)
    ]
    failures = compare_bench(current, committed, threshold=args.threshold)
    if failures:
        print("PERF GATE FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"perf gate passed (threshold {args.threshold:.0%}, "
          f"event reduction >= {args.reduction_floor:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
