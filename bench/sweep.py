"""Run every workload at several seeds: one set of benchmark runs.

    python3 bench/sweep.py --seeds 10 --json A.json

Runs ``bench/run.py`` once per (seed, workload), round-robin across
workloads so slow drift of the host lands on all of them alike, one process
at a time. Prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance / median) the acceptance
rule looks at, and writes every run's result to ``--json`` for
``bench/compare.py``. The summary claims nothing: it ends with
``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and relative spread of one metric's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def metric_values(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """{workload: {metric: [value per run]}} of a set's correct runs."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["result"] and run["result"]["correct"]:
            for name, metric in run["result"]["metrics"].items():
                table.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    return table


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "exit_code": done.returncode, "result": result, "log": lines[:-1],
    }


def main(argv: Optional[List[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        declaration = json.load(handle)
    names = [entry["name"] for entry in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="how many seeds, from 1 up")
    parser.add_argument("--workload", action="append", choices=names,
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", dest="out", default=None)
    args = parser.parse_args(argv)

    runs = []
    for seed in range(1, args.seeds + 1):
        for workload in args.workload or names:
            run = run_once(workload, seed, args.trace)
            runs.append(run)
            status = "ok" if run["exit_code"] == 0 else f"exit {run['exit_code']}"
            print(f"seed {seed} {workload}: {status}", file=sys.stderr)

    bounds = {metric["name"]: metric.get("bound") for metric in declaration["end_to_end"]}
    units = {
        metric["name"]: metric["unit"]
        for metric in declaration["end_to_end"] + declaration["per_layer"]
    }
    table = {}
    for workload, metrics in metric_values(runs).items():
        for name, values in metrics.items():
            row = summarize(values)
            row["unit"] = units[name]
            table.setdefault(workload, {})[name] = row
            bound = bounds.get(name)
            steady = "" if bound is None else (
                "  steady" if row["spread"] < bound / 3 else f"  spread over bound/3 ({bound / 3:.3f})"
            )
            print(
                f"{workload:18s} {name:32s} {row['median']:.6g} {row['unit']}"
                f"  quartiles {row['q1']:.6g}..{row['q3']:.6g}"
                f"  spread {row['spread']:.4f}  n={row['n']}{steady}"
            )
    failed = [run for run in runs if run["exit_code"] != 0]
    summary = {
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "trace": args.trace,
        "runs": runs,
        "table": table,
        "failed_runs": len(failed),
        "claim": None,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    print(json.dumps({"runs": len(runs), "failed_runs": len(failed), "claim": None}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
