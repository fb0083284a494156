"""Command-line interface to the experiment harness.

Usage (``repro-experiments`` after ``pip install -e .``, or
``python -m repro.experiments.cli``)::

    repro-experiments list
    repro-experiments figure fig7 [--full] [--seed 3]
    repro-experiments table2 [--full] [--repetitions 5]
    repro-experiments analysis
    repro-experiments scaling --sizes 25 50 100
    repro-experiments sweep wan-3-region --seeds 8 --jobs 4 [--json]
    repro-experiments run wan-3-region --seed 1 --shards 4 [--json]

``figure``/``table2``/... print the same rows/series the paper reports;
``sweep`` fans a registered scenario over a seed matrix in parallel
worker processes (the merged report is byte-identical for any --jobs);
``run`` executes one scenario for one seed, optionally sharded across
worker processes (``--shards N``; the merged snapshot is bit-for-bit
identical to ``--shards 1`` — see docs/sharding.md).

Both ``run`` and ``sweep`` execute under supervision: failed workers are
retried (``--retries``, exponential ``--backoff``), ``run --degrade``
falls back to single-process execution after retries are exhausted, and
``--health-json`` exports the :class:`~repro.metrics.runhealth.RunHealth`
ledger (``run --json`` embeds it as the ``run_health`` key, which
``scripts/diff_snapshots.py`` ignores). ``--chaos``/``--chaos-cells``
inject runner faults for supervision testing. Exit codes are distinct:
``2`` for usage errors (unknown scenario, bad flags), ``3`` for a worker
failure that survived every recovery rung.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    FIGURE_CONFIGS,
    LATENCY_FIGURES,
    run_figure,
)
from repro.experiments.scaling import render_scaling_study, run_scaling_study
from repro.experiments.tables import render_table2, run_table2
from repro.scenarios import SweepRunner, iter_scenarios, scenario_names

# Exit codes: 0 success, 2 usage error (argparse default for bad flags,
# also unknown scenario), 3 worker failure after every recovery rung.
EXIT_USAGE = 2
EXIT_WORKER_FAILURE = 3


def _write_health_json(path: Optional[str], health) -> None:
    if path is None or health is None:
        return
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(health.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_list(args: argparse.Namespace) -> int:
    print("latency figures  :", ", ".join(LATENCY_FIGURES))
    print("bandwidth figures:", ", ".join(BANDWIDTH_FIGURES))
    print("tables           : table2")
    print("other            : analysis, scaling")
    print("scenarios        :")
    for spec in iter_scenarios():
        print(f"  {spec.name:<28} {spec.description}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.scenario not in scenario_names():
        print(
            f"unknown scenario {args.scenario!r}; try 'list'",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    chaos = None
    if args.chaos_cells:
        from repro.faults.chaos import SweepChaos

        try:
            crash_seeds = tuple(
                int(part) for part in args.chaos_cells.split(",") if part
            )
        except ValueError:
            print(
                f"bad --chaos-cells {args.chaos_cells!r}: expected SEED[,SEED...]",
                file=sys.stderr,
            )
            return EXIT_USAGE
        chaos = SweepChaos(crash_seeds=crash_seeds)
    from repro.metrics.runhealth import RunHealth
    from repro.scenarios.sweep import SweepCellError

    health = RunHealth()
    seeds = list(range(args.base_seed, args.base_seed + args.seeds))
    runner = SweepRunner(
        jobs=args.jobs,
        retries=args.retries,
        backoff=args.backoff,
        cell_timeout=args.cell_timeout,
        chaos=chaos,
    )
    try:
        report = runner.run(args.scenario, seeds=seeds, full=args.full, health=health)
    except SweepCellError as exc:
        _write_health_json(args.health_json, health)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_WORKER_FAILURE
    _write_health_json(args.health_json, health)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        rescued = sum(
            1 for cell in health.cells.values() if cell.get("rescued_by")
        )
        if rescued:
            print(
                f"  run health: {rescued} cell(s) rescued "
                f"({health.retries} extra attempt(s))"
            )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    if args.scenario not in scenario_names():
        print(
            f"unknown scenario {args.scenario!r}; try 'list'",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.retries < 0:
        print("--retries must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    chaos = None
    if args.chaos:
        from repro.faults.chaos import parse_shard_chaos

        try:
            chaos = parse_shard_chaos(args.chaos)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    from repro.metrics.runhealth import RunHealth
    from repro.scenarios import run_scenario_sharded
    from repro.scenarios.sharded import ShardWorkerError, SupervisionConfig

    supervision = None
    if args.response_timeout is not None:
        try:
            supervision = SupervisionConfig(response_timeout=args.response_timeout)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_USAGE
    health = RunHealth()
    try:
        run = run_scenario_sharded(
            args.scenario,
            seed=args.seed,
            shards=args.shards,
            mode=args.mode,
            full=args.full,
            retries=args.retries,
            backoff=args.backoff,
            degrade=args.degrade,
            chaos=chaos,
            supervision=supervision,
            health=health,
        )
    except ShardWorkerError as exc:
        _write_health_json(args.health_json, health)
        print(
            f"worker failure after {health.attempts} attempt(s): {exc}",
            file=sys.stderr,
        )
        return EXIT_WORKER_FAILURE
    _write_health_json(args.health_json, health)
    snapshot = run.snapshot()
    if args.json:
        payload = dict(snapshot)
        payload["run_health"] = health.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        plan = run.plan
        if plan.shards > 1:
            print(
                f"{args.scenario} seed={run.seed}: {plan.shards} shards, "
                f"lookahead {plan.lookahead * 1e3:.1f} ms, "
                f"{plan.windows_per_second} windows/s ({run.mode})"
            )
        elif plan.forced_reason:
            print(
                f"{args.scenario} seed={run.seed}: single-process "
                f"(forced: {plan.forced_reason})"
            )
        else:
            print(f"{args.scenario} seed={run.seed}: single-process")
        if health.restarts or health.degradations:
            tail = ", degraded to single-process" if health.degradations else ""
            print(
                f"  supervision: {health.attempts} attempt(s), "
                f"{health.restarts} restart(s){tail}"
            )
        for key in sorted(snapshot):
            if key in ("scenario", "seed", "by_kind_bytes", "resilience"):
                continue
            print(f"  {key:<20} {snapshot[key]}")
        resilience = snapshot.get("resilience")
        if resilience:
            counters = resilience["counters"]
            hardening = {
                name: value for name, value in counters.items() if value
            }
            print(f"  resilience           faults_dropped={resilience['faults_dropped']}"
                  f" joined={resilience['peers_joined']}"
                  f" departed={resilience['peers_departed']}")
            if hardening:
                print("    counters           "
                      + " ".join(f"{k}={v}" for k, v in sorted(hardening.items())))
            full = resilience["infection"].get("1")
            if full and "max" in full:
                print(f"    infection(100%)    p50={full['p50']:.3f}s"
                      f" p95={full['p95']:.3f}s max={full['max']:.3f}s"
                      f" ({full['blocks_reached']} blocks)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.figure_id not in FIGURE_CONFIGS:
        print(f"unknown figure {args.figure_id!r}; try 'list'", file=sys.stderr)
        return 2
    figure, result = run_figure(args.figure_id, full=args.full, seed=args.seed)
    if args.figure_id in LATENCY_FIGURES:
        from repro.metrics.latency import percentile
        from repro.metrics.probability_plot import PAPER_Y_TICKS
        from repro.metrics.report import format_table

        ticks = [p for p in PAPER_Y_TICKS if 0.01 <= p <= 0.9999]
        headers = ["fraction"] + list(figure.curves)
        rows = []
        for tick in ticks:
            row: List[object] = [f"{tick:g}"]
            for label in figure.curves:
                samples = sorted(point.latency for point in figure.curves[label])
                row.append(percentile(samples, tick))
            rows.append(row)
        print(format_table(headers, rows, title=f"{args.figure_id}: latency (s) at CDF fractions"))
    else:
        print(f"{args.figure_id}: {figure.interval:.0f}-second aggregated utilization (MB/s)")
        print(f"leader  (avg {figure.leader_average:.2f}):",
              " ".join(f"{v:.2f}" for v in figure.leader_series))
        print(f"regular (avg {figure.regular_average:.2f}):",
              " ".join(f"{v:.2f}" for v in figure.regular_series))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = run_table2(repetitions=args.repetitions, full=args.full, base_seed=args.seed)
    print(render_table2(rows))
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    from repro.analysis import (
        carrying_capacity,
        imperfect_dissemination_probability,
        infect_and_die_distribution,
        ttl_for_target,
    )

    exact = infect_and_die_distribution(100, 3)
    print("infect-and-die @ n=100, fout=3: "
          f"mean {exact.mean_infected:.2f}, std {exact.std_infected:.2f}, "
          f"transmissions {exact.mean_transmissions:.1f} (paper: 94 / 2.6 / 282)")
    print(f"gamma(n=100, fout=4) = {carrying_capacity(100, 4):.2f}")
    for fout, ttl, target in ((4, 9, 1e-6), (2, 19, 1e-6), (4, 12, 1e-12)):
        pe = imperfect_dissemination_probability(100, fout, ttl)
        print(f"fout={fout}, TTL={ttl}: pe <= {pe:.2e} "
              f"(minimal TTL for {target:g}: {ttl_for_target(100, fout, target)})")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    points = run_scaling_study(sizes=tuple(args.sizes), blocks=args.blocks, seed=args.seed)
    print(render_scaling_study(points))
    return 0


def _cmd_streamchain(args: argparse.Namespace) -> int:
    from repro.experiments.streamchain import render_streamchain_study, run_streamchain_study

    results = run_streamchain_study(
        n_peers=args.peers, transactions=args.transactions, seed=args.seed
    )
    print(render_streamchain_study(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the figures and tables of 'Fair and Efficient "
                    "Gossip in Hyperledger Fabric' (ICDCS 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    figure = sub.add_parser("figure", help="reproduce one figure (fig4..fig14)")
    figure.add_argument("figure_id")
    figure.add_argument("--full", action="store_true", help="paper-scale run")
    figure.add_argument("--seed", type=int, default=1)
    figure.set_defaults(func=_cmd_figure)

    table2 = sub.add_parser("table2", help="reproduce Table II")
    table2.add_argument("--full", action="store_true")
    table2.add_argument("--repetitions", type=int, default=3)
    table2.add_argument("--seed", type=int, default=1)
    table2.set_defaults(func=_cmd_table2)

    analysis = sub.add_parser("analysis", help="print the §IV/appendix numbers")
    analysis.set_defaults(func=_cmd_analysis)

    scaling = sub.add_parser("scaling", help="organization-size sweep")
    scaling.add_argument("--sizes", type=int, nargs="+", default=[25, 50, 100])
    scaling.add_argument("--blocks", type=int, default=10)
    scaling.add_argument("--seed", type=int, default=1)
    scaling.set_defaults(func=_cmd_scaling)

    streamchain = sub.add_parser(
        "streamchain", help="§VII StreamChain study: stream vs block ordering"
    )
    streamchain.add_argument("--peers", type=int, default=50)
    streamchain.add_argument("--transactions", type=int, default=150)
    streamchain.add_argument("--seed", type=int, default=1)
    streamchain.set_defaults(func=_cmd_streamchain)

    sweep = sub.add_parser(
        "sweep", help="run a registered scenario over a seed matrix in parallel"
    )
    sweep.add_argument("scenario", help="registered scenario name (see 'list')")
    sweep.add_argument("--seeds", type=int, default=4,
                       help="number of seeds (base-seed .. base-seed+N-1)")
    sweep.add_argument("--base-seed", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (merged output is identical for any value)")
    sweep.add_argument("--full", action="store_true", help="paper-scale workload")
    sweep.add_argument("--json", action="store_true", help="print the merged JSON report")
    sweep.add_argument("--retries", type=int, default=1,
                       help="fresh-process retries per failed cell before the "
                            "inline fallback (default 1)")
    sweep.add_argument("--backoff", type=float, default=0.5,
                       help="base seconds before retry k (backoff * 2**(k-1))")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       help="seconds to wait for any pool result; unaccounted "
                            "cells enter the recovery ladder")
    sweep.add_argument("--health-json", metavar="PATH", default=None,
                       help="write the RunHealth ledger to PATH (written even "
                            "when the sweep fails)")
    sweep.add_argument("--chaos-cells", metavar="SEEDS", default=None,
                       help="chaos: comma-separated seeds whose first cell "
                            "attempt crashes (supervision testing)")
    sweep.set_defaults(func=_cmd_sweep)

    run = sub.add_parser(
        "run", help="run one scenario for one seed, optionally process-sharded"
    )
    run.add_argument("scenario", help="registered scenario name (see 'list')")
    run.add_argument("--seed", type=int, default=None,
                     help="seed (default: the scenario's first seed)")
    run.add_argument("--shards", type=int, default=1,
                     help="shard worker processes; the merged snapshot is "
                          "bit-for-bit identical for any value")
    run.add_argument("--mode", choices=("auto", "processes", "inline"),
                     default="auto",
                     help="sharded execution mode (default auto: one OS "
                          "process per shard)")
    run.add_argument("--full", action="store_true", help="paper-scale workload")
    run.add_argument("--json", action="store_true",
                     help="print the snapshot as JSON (plus a run_health key; "
                          "scripts/diff_snapshots.py ignores it)")
    run.add_argument("--retries", type=int, default=1,
                     help="full-run retries after a worker failure "
                          "(deterministic re-execution; default 1)")
    run.add_argument("--backoff", type=float, default=0.5,
                     help="base seconds before retry k (backoff * 2**(k-1))")
    run.add_argument("--degrade", action="store_true",
                     help="after retries are exhausted, re-execute "
                          "single-process inline instead of failing")
    run.add_argument("--response-timeout", type=float, default=None,
                     help="seconds a worker may stay silent on one command "
                          "before it is declared wedged (default 600)")
    run.add_argument("--health-json", metavar="PATH", default=None,
                     help="write the RunHealth ledger to PATH (written even "
                          "when the run fails)")
    run.add_argument("--chaos", metavar="SPEC", default=None,
                     help="chaos: MODE:SHARD@WINDOW (e.g. kill:1@3; modes "
                          "kill/raise/wedge/close/delay; '!' suffix fires on "
                          "every attempt)")
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
