#!/usr/bin/env python
"""Determinism gate for the simulation core.

Replays every golden scenario of ``repro.perf.regression.GOLDEN_SCENARIOS``
and fails on any divergence from ``src/repro/perf/golden_metrics.json``
(bit-for-bit: event counts, latency floats, byte totals), then checks that
the committed goldens sit within tolerance of the frozen PR-1 reference
physics and at least 30% below the frozen naive-engine event counts.
Machine-independent: no wall clock is read. Performance is measured with
``python3 bench/run.py`` against ``BENCHMARK.json`` (bench/README.md).

Usage::

    PYTHONPATH=src python scripts/perf_gate.py                # the gate
    PYTHONPATH=src python scripts/perf_gate.py --shards 4     # process-sharded replay
    PYTHONPATH=src python scripts/perf_gate.py --update-goldens-only

``--shards N`` replays the goldens across N shard workers; every metric
except the engine-internal ``events_executed`` (which legitimately depends
on the shard count — see docs/sharding.md) must still match, and a plan
that falls back to single-process execution fails. ``--diff-output PATH``
writes any golden-vs-actual mismatches as JSON so CI can upload them as a
debugging artifact. Exit codes: 0 pass, 1 gate failure, 2 bad arguments.

When is ``--update-goldens-only`` legitimate?
---------------------------------------------

Refreshing ``golden_metrics.json`` is the *expected* final step of a change
that intentionally alters event interleaving — a scheduler refactor that
reorders same-instant events, an event-count optimization, a deliberate
scenario change. It is **masking a regression** when used to silence a
gate failure whose diff you cannot explain: goldens that moved without an
intentional interleaving change mean the engine stopped being
deterministic. The refresh re-validates the freshly captured goldens
against ``PR1_REFERENCE_METRICS`` and ``NAIVE_ENGINE_EVENTS`` and *refuses
to write* if latency/byte figures drifted beyond tolerance or the batching
eroded — interleaving may change, physics may not. Commit the refreshed
JSON together with the change that explains it; if you cannot name the
mechanism that moved the numbers, do not update — bisect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.perf import (  # noqa: E402 (path bootstrap above)
    check_determinism,
    check_reference_tolerance,
    update_golden,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--shards", type=int, default=1,
                        help="replay the goldens process-sharded across N workers; the "
                             "merged run must reproduce every golden metric except "
                             "events_executed")
    parser.add_argument("--shard-mode", choices=("auto", "processes", "inline"),
                        default="auto", help="shard execution mode for --shards")
    parser.add_argument("--diff-output", default=None, metavar="PATH",
                        help="write golden-vs-actual mismatches as JSON to PATH on "
                             "determinism failure (CI uploads it as an artifact)")
    parser.add_argument("--update-goldens-only", action="store_true",
                        help="re-capture golden_metrics.json instead of gating (refused "
                             "when the capture fails the PR-1 tolerance; see above)")
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    if args.update_goldens_only:
        try:
            golden = update_golden()
        except ValueError as error:
            print(f"GOLDEN UPDATE REFUSED: {error}")
            return 1
        print(f"golden metrics updated ({len(golden)} scenarios): "
              "src/repro/perf/golden_metrics.json")
        return 0

    diff = []
    mismatches = check_determinism(shards=args.shards, mode=args.shard_mode, diff=diff)
    if mismatches:
        print(f"determinism contract VIOLATED (shards={args.shards}):")
        for line in mismatches:
            print(f"  - {line}")
        if args.diff_output and diff:
            with open(args.diff_output, "w", encoding="utf-8") as handle:
                json.dump({"failures": diff}, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"diff written to {args.diff_output}")
        return 1
    drift = check_reference_tolerance()
    if drift:
        print("golden metrics out of tolerance vs the frozen references:")
        for line in drift:
            print(f"  - {line}")
        return 1
    how = (f"across {args.shards} shard workers, events_executed excluded"
           if args.shards > 1 else "single-process")
    print(f"determinism: OK (golden metrics reproduced bit-for-bit {how}; "
          "within PR-1 reference tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
