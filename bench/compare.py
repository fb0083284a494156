"""Compare two sets of benchmark runs written by ``bench/sweep.py --json``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): the base (A's median), B's
median, their ratio, how much worse B is as a share of the base, the
metric's bound, each set's spread (interquartile distance / median) and a
verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - a spread is wider than the bound, so the runs cannot tell
  (unless every run of B reads better than every run of A: then ``ok``);
* ``ok``         - B is no worse than A by more than the bound.

Exit code 1 if any row regressed. Two sets of the same code, back to back,
must come out all ``ok``: that is the benchmark's own acceptance check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path[0] = str(ROOT)  # run as a script: make the bench package importable

from bench.sweep import metric_values, summarize  # noqa: E402


def verdict(base: List[float], new: List[float], better: str, bound: float) -> dict:
    """Row for one (workload, metric) pair; values are one per run."""
    a, b = summarize(base), summarize(new)
    ratio = b["median"] / a["median"]
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if worse_by > bound:
        status = "regressed"
    elif max(a["spread"], b["spread"]) > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return {
        "base": a["median"], "new": b["median"], "ratio": ratio, "worse_by": worse_by,
        "bound": bound, "base_spread": a["spread"], "new_spread": b["spread"],
        "status": status,
    }


def compare(set_a: dict, set_b: dict, declaration: dict) -> List[dict]:
    values_a, values_b = metric_values(set_a["runs"]), metric_values(set_b["runs"])
    rows = []
    for workload in (entry["name"] for entry in declaration["workloads"]):
        for metric in declaration["end_to_end"]:
            base = values_a.get(workload, {}).get(metric["name"])
            new = values_b.get(workload, {}).get(metric["name"])
            if base and new:
                row = verdict(base, new, metric["better"], metric["bound"])
                row.update(workload=workload, metric=metric["name"], unit=metric["unit"])
                rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sets = []
    for path in paths:
        with open(path) as handle:
            sets.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json") as handle:
        declaration = json.load(handle)
    rows = compare(sets[0], sets[1], declaration)
    for row in rows:
        print(
            f"{row['workload']:18s} {row['metric']:12s} base {row['base']:.6g} {row['unit']}"
            f"  new {row['new']:.6g}  ratio {row['ratio']:.4f}"
            f"  worse by {row['worse_by']:+.4f} (bound {row['bound']})"
            f"  spread {row['base_spread']:.4f}/{row['new_spread']:.4f}  {row['status']}"
        )
    counts = {status: sum(row["status"] == status for row in rows)
              for status in ("ok", "unresolved", "regressed")}
    print(json.dumps(counts))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
