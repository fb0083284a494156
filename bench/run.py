"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` this measures the end-to-end metrics of BENCHMARK.json:
fresh child processes (``bench.rep``) run the workload one after another,
repetition *r* at seed ``N + r``, until ``S`` seconds are used; each metric
is the median repetition, host times in reference seconds (the host's
measured slowdown divided out, see ``bench.hostspeed``). With
``--trace 1`` it alternates an untraced and a traced repetition at the same
seed (a sharded workload adds its unsharded and its worker-process run to
every round) and reports the per-layer metrics. Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only if
every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if not __package__:
    # Run as a script: swap the script's directory for the places the
    # benchmark package and the simulator are imported from.
    sys.path[0:1] = [str(SOURCE), str(ROOT)]

from bench.sweep import summarize  # noqa: E402  (after the path fix above)

REP_TIMEOUT_S = 120.0


def spawn_rep(registry: str, workload: str, variant: str, seed: int, trace: bool) -> dict:
    """One repetition in a fresh interpreter; never raises for a bad rep."""
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    origin = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "bench.rep",
            "--registry", registry,
            "--workload", workload,
            "--variant", variant,
            "--seed", str(seed),
            "--origin", repr(origin),
            "--trace", "1" if trace else "0",
        ],
        cwd=ROOT,
        env=environment,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    problem = None
    try:
        output, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problem = f"timed out after {REP_TIMEOUT_S:.0f} s"
        output = ""
    finally:
        # The rep leads its own process group, so shard workers it may have
        # left behind go with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    rep = None
    if problem is None:
        lines = output.strip().splitlines()
        try:
            rep = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            rep = None
        if not isinstance(rep, dict) or "attempted" not in rep:
            rep = None
            problem = f"rep exited with code {process.returncode} and no result"
    if rep is None:
        nominal = importlib.import_module(registry).WORKLOADS[workload].deliveries
        rep = {
            "variant": variant, "seed": seed, "trace": trace,
            "attempted": nominal, "failed": nominal, "problems": [problem],
        }
    rep["elapsed_s"] = time.perf_counter() - origin
    return rep


def rep_ok(rep: dict) -> bool:
    return rep["failed"] == 0 and not rep["problems"]


def describe(values: List[float]) -> str:
    row = summarize(values)
    return f"median {row['median']:.6g}, quartiles {row['q1']:.6g}..{row['q3']:.6g}, n={row['n']}"


def outcome(reps: List[dict], problems: List[str], metrics: dict) -> dict:
    """The run's result; ``problems`` leaves it before it is printed."""
    problems = problems + [problem for rep in reps for problem in rep["problems"]]
    return {
        "correct": not problems and all(rep_ok(rep) for rep in reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
        "problems": problems,
    }


def has_time_for(started: float, seconds: float, durations: List[float]) -> bool:
    """Another round fits if a typical one ends before the budget does."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def measure_end_to_end(registry, workload, seed, seconds, declared) -> dict:
    started = time.perf_counter()
    measured: List[dict] = []
    oracle: Optional[dict] = None
    problems: List[str] = []
    while True:
        rep = spawn_rep(registry, workload, "measured", seed + len(measured), False)
        measured.append(rep)
        if not rep_ok(rep):
            break
        if rep["sharded"] and oracle is None:
            # The unsharded run the first repetition must equal, inside the
            # time budget like the repetitions themselves.
            oracle = spawn_rep(registry, workload, "oracle", rep["seed"], False)
            if rep_ok(oracle) and oracle["digest"] != rep["digest"]:
                problems.append("sharded physics differ from the unsharded run")
        if not has_time_for(started, seconds, [rep["elapsed_s"] for rep in measured]):
            break
    good = [rep for rep in measured if rep_ok(rep)]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        values = [rep[name] for rep in good]
        if values:
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": metric["unit"]}
            print(f"{name} = {value:.6g} {metric['unit']}  ({describe(values)})")
    if good:
        # What the clock read before the host's speed was divided out.
        for name, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("host_slowdown", "ratio")):
            print(f"{name}: {describe([rep[name] for rep in good])} {unit}")
        report_physics(workload, good[0])
    return outcome(measured + ([oracle] if oracle else []), problems, metrics)


def measure_per_layer(registry, workload, seed, seconds, declared) -> dict:
    started = time.perf_counter()
    rounds: List[Dict[str, float]] = []
    reps: List[dict] = []
    durations: List[float] = []
    problems: List[str] = []
    while True:
        # Every round runs the same seed, so the counts repeat exactly and
        # only the times vary from round to round.
        round_started = time.perf_counter()
        plain = spawn_rep(registry, workload, "measured", seed, False)
        traced = spawn_rep(registry, workload, "measured", seed, True)
        round_reps = [plain, traced]
        sharded = bool(plain.get("sharded"))
        if sharded:
            # Timed beside them: the unsharded run the sharded ones must
            # equal, and the same shards as worker processes.
            unsharded = spawn_rep(registry, workload, "oracle", seed, False)
            workers = spawn_rep(registry, workload, "parallel", seed, False)
            round_reps += [unsharded, workers]
        reps += round_reps
        durations.append(time.perf_counter() - round_started)
        if not all(rep_ok(rep) for rep in round_reps):
            break
        if len({rep["digest"] for rep in round_reps}) != 1:
            problems.append("traced, untraced, unsharded or worker-process physics differ")
            break
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        layers["simulation.engine.us_per_event"] = (
            1e6 * (plain["wall_s"] - plain["setup_s"]) / plain["events"]
        )
        layers["simulation.sharded.workers_wall_s"] = workers["wall_s"] if sharded else 0.0
        layers["simulation.sharded.workers_peak_rss_mb"] = (
            workers["peak_rss_mb"] if sharded else 0.0
        )
        layers["simulation.sharded.speedup"] = (
            unsharded["wall_s"] / workers["wall_s"] if sharded else 0.0
        )
        rounds.append(layers)
        if not has_time_for(started, seconds, durations):
            break
    metrics = {}
    if rounds:
        for metric in declared:
            name = metric["name"]
            values = [layers[name] for layers in rounds]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": metric["unit"]}
            print(f"{name} = {value:.6g} {metric['unit']}  (n={len(values)})")
    return outcome(reps, problems, metrics)


def report_physics(workload: str, rep: dict) -> None:
    """Print one repetition's simulated statistics and whether they drifted
    from the committed ones; drift is news, not a failure (the tier-1
    goldens own bit-for-bit physics)."""
    stats = " ".join(f"{key}={value!r}" for key, value in rep["physics"].items())
    print(f"physics: seed={rep['seed']} digest={rep['digest']} {stats}")
    with open(Path(__file__).with_name("results.json")) as handle:
        committed = json.load(handle)["physics"].get(workload)
    if committed and committed["seed"] == rep["seed"]:
        print(f"physics_changed: {str(rep['digest'] != committed['digest']).lower()}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--registry", default="bench.workloads",
                        help="module whose WORKLOADS to run (tests use a tiny one)")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"no simulator source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        declaration = json.load(handle)
    seconds = declaration["run_seconds"] if args.seconds is None else args.seconds
    # The program is pure Python: "building" it is byte-compiling it, so no
    # repetition pays for that on the clock.
    compileall.compile_dir(str(SOURCE), quiet=2)
    if args.trace:
        measure, declared = measure_per_layer, declaration["per_layer"]
    else:
        measure, declared = measure_end_to_end, declaration["end_to_end"]
    result = measure(args.registry, args.workload, args.seed, seconds, declared)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
