#!/usr/bin/env python
"""Compare two scenario snapshot JSON files for bit-for-bit equality.

Usage::

    python scripts/diff_snapshots.py a.json b.json [--ignore KEY ...]

Exits 0 when the snapshots match on every key except the ignored ones
(default: ``events_executed``, the documented shard-variant key — exact
tie grouping is shard-local, see docs/sharding.md — and ``run_health``,
the wall-clock supervision ledger ``run --json`` embeds), 1 with a
readable per-key diff otherwise. The CI adversarial-determinism job uses
this to assert that a byzantine/churn scenario's snapshot is identical
whether the simulation ran in one process or partitioned across shard
workers.
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_IGNORED = ("events_executed", "run_health")


def diff_snapshots(a: dict, b: dict, ignored: frozenset) -> list:
    """Human-readable mismatch lines between two snapshot dicts."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key in ignored:
            continue
        left, right = a.get(key, "<missing>"), b.get(key, "<missing>")
        if left != right:
            lines.append(f"{key}: {left!r} != {right!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left")
    parser.add_argument("right")
    parser.add_argument(
        "--ignore",
        nargs="*",
        default=list(DEFAULT_IGNORED),
        help="top-level keys excluded from the comparison",
    )
    args = parser.parse_args(argv)
    with open(args.left) as handle:
        a = json.load(handle)
    with open(args.right) as handle:
        b = json.load(handle)
    mismatches = diff_snapshots(a, b, frozenset(args.ignore))
    if mismatches:
        print(f"{args.left} != {args.right}:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"snapshots match ({len(set(a) - set(args.ignore))} keys compared)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
