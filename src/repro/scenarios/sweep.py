"""Parallel multi-seed scenario sweeps.

A sweep runs one registered scenario across a seed list — the repetition
methodology the paper uses for Table II, generalized to every scenario —
and merges the per-seed metric snapshots into one report. Seeds are
independent simulations, so the matrix fans out over ``multiprocessing``
workers; each worker runs exactly one deterministic simulation, and the
merge is performed in sorted-seed order, which makes the merged report
**byte-identical for any worker count** (``--jobs 4`` equals ``--jobs 1``
— the acceptance test of the sweep subsystem).

Workers resolve the scenario by *name* against the registry they import
themselves, so nothing live crosses the process boundary: the task tuple
is ``(name, seed, full, chaos, attempt, inline)`` and the result is a
plain ``(seed, snapshot, error)`` triple.

Failed cells are recovered, not fatal: every cell runs guarded, a cell
that raises (or times out under ``cell_timeout``) is retried up to
``retries`` times in a **fresh process** with exponential backoff, and a
cell that keeps failing is re-executed **inline** in the coordinator as
graceful degradation — the simulation is deterministic, so any attempt
that completes produces the byte-identical snapshot the first attempt
would have. Only when even the inline run fails does the sweep raise
:class:`SweepCellError`. The supervision ledger (attempts, rescues,
errors) lands in a :class:`~repro.metrics.runhealth.RunHealth` attached
to the report — and deliberately **not** in ``SweepReport.to_json``,
which must stay byte-comparable across worker counts.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.chaos import SweepChaos
from repro.metrics.report import format_table
from repro.metrics.runhealth import RunHealth
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import run_scenario

# Top-level snapshot metrics averaged across seeds (in sorted-seed order,
# so the float sums — and therefore the report bytes — are reproducible).
AGGREGATE_KEYS = (
    "events_executed",
    "final_time",
    "latency_max",
    "latency_mean",
    "latency_p50",
    "latency_p95",
    "total_bytes",
    "total_messages",
    "dropped_messages",
    "blocks_via_recovery",
)


class SweepCellError(RuntimeError):
    """A sweep cell failed every rung of the recovery ladder."""

    def __init__(self, scenario: str, seed: int, attempts: int, error: str):
        self.scenario = scenario
        self.seed = seed
        self.attempts = attempts
        self.error = error
        super().__init__(
            f"sweep cell {scenario!r} seed={seed} failed after {attempts} "
            f"attempt(s) including the inline fallback:\n{error}"
        )


def _run_sweep_cell(cell: Tuple) -> Tuple[int, dict]:
    """One (scenario, seed) simulation; raises on failure.

    Accepts the historical 3-tuple ``(name, seed, full)`` as well as the
    supervised 6-tuple with chaos/attempt/inline riding along.
    """
    name, seed, full = cell[0], cell[1], cell[2]
    chaos = cell[3] if len(cell) > 3 else None
    attempt = cell[4] if len(cell) > 4 else 1
    inline = cell[5] if len(cell) > 5 else False
    if chaos is not None:
        chaos.apply(seed, attempt, inline=inline)
    return seed, run_scenario(name, seed=seed, full=full).snapshot()


def _run_sweep_cell_guarded(cell: Tuple) -> Tuple[int, Optional[dict], Optional[str]]:
    """Worker entry point: never raises, reports the traceback instead."""
    try:
        seed, snapshot = _run_sweep_cell(cell)
        return seed, snapshot, None
    except Exception:
        return cell[1], None, traceback.format_exc()


def _cell_to_pipe(conn, cell: Tuple) -> None:
    """Fresh-process retry entry point: ship the guarded triple back."""
    try:
        conn.send(_run_sweep_cell_guarded(cell))
    finally:
        conn.close()


def _retry_in_fresh_process(
    context, cell: Tuple, timeout: Optional[float]
) -> Tuple[int, Optional[dict], Optional[str]]:
    """Run one retry attempt in a brand-new process (not a pool worker
    that may share whatever state broke the first attempt)."""
    seed = cell[1]
    parent, child = context.Pipe(duplex=False)
    process = context.Process(target=_cell_to_pipe, args=(child, cell), daemon=True)
    process.start()
    child.close()
    try:
        if timeout is not None and not parent.poll(timeout):
            return seed, None, f"retry cell timed out after {timeout}s"
        return parent.recv()
    except (EOFError, BrokenPipeError, OSError):
        process.join(0.2)
        return seed, None, (
            f"retry worker died without a result (exit code {process.exitcode})"
        )
    finally:
        parent.close()
        if process.is_alive():
            process.terminate()
        process.join(5.0)


@dataclass
class SweepReport:
    """Merged outcome of one scenario × seed matrix.

    ``health`` carries the supervision ledger (attempts, retries,
    rescues); it holds wall-clock data and is therefore excluded from
    :meth:`to_json`, which byte-compares across worker counts.
    """

    scenario: str
    seeds: List[int]
    runs: Dict[int, dict] = field(default_factory=dict)  # sorted-seed order
    aggregate: Dict[str, float] = field(default_factory=dict)
    health: Optional[RunHealth] = None

    def to_json(self) -> str:
        """Canonical JSON: independent of worker count and arrival order."""
        return json.dumps(
            {
                "scenario": self.scenario,
                "seeds": self.seeds,
                "runs": {str(seed): self.runs[seed] for seed in self.seeds},
                "aggregate": self.aggregate,
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        headers = ["seed", "events", "mean (s)", "p50 (s)", "p95 (s)", "max (s)",
                   "MB", "messages", "dropped", "recovered"]
        rows = []
        for seed in self.seeds:
            run = self.runs[seed]
            rows.append([
                seed,
                run["events_executed"],
                run["latency_mean"],
                run["latency_p50"],
                run["latency_p95"],
                run["latency_max"],
                f"{run['total_bytes'] / 1e6:.1f}",
                run["total_messages"],
                run["dropped_messages"],
                run["blocks_via_recovery"],
            ])
        agg = self.aggregate
        rows.append([
            "mean",
            f"{agg['events_executed']:.0f}",
            agg["latency_mean"],
            agg["latency_p50"],
            agg["latency_p95"],
            agg["latency_max"],
            f"{agg['total_bytes'] / 1e6:.1f}",
            f"{agg['total_messages']:.0f}",
            f"{agg['dropped_messages']:.0f}",
            f"{agg['blocks_via_recovery']:.0f}",
        ])
        return format_table(
            headers, rows,
            title=f"sweep: {self.scenario} over {len(self.seeds)} seeds",
        )


def merge_runs(
    scenario: str,
    results: Sequence[Tuple[int, dict]],
    health: Optional[RunHealth] = None,
) -> SweepReport:
    """Merge per-seed snapshots deterministically (sorted by seed)."""
    ordered = sorted(results, key=lambda item: item[0])
    seeds = [seed for seed, _ in ordered]
    runs = {seed: snapshot for seed, snapshot in ordered}
    aggregate: Dict[str, float] = {}
    if ordered:
        for key in AGGREGATE_KEYS:
            aggregate[key] = sum(runs[seed][key] for seed in seeds) / len(seeds)
    return SweepReport(
        scenario=scenario, seeds=seeds, runs=runs, aggregate=aggregate, health=health
    )


class SweepRunner:
    """Fan a scenario × seed matrix out over worker processes.

    ``jobs=1`` runs inline (no pool); any higher value uses a process
    pool of ``min(jobs, len(seeds))`` workers. The fork start method is
    preferred (workers inherit any custom registered scenarios); where
    only spawn exists, workers still resolve built-in scenarios through
    their own registry import.

    Recovery ladder per cell: pool attempt -> up to ``retries`` fresh
    processes (backoff ``backoff * 2**k`` seconds) -> one inline run in
    the coordinator. ``cell_timeout`` bounds how long the coordinator
    waits for any pool result; cells still unaccounted for when it fires
    are treated as failed and enter the ladder (pool teardown reaps the
    stragglers). ``chaos`` injects :class:`~repro.faults.chaos.SweepChaos`
    cell failures for testing the ladder itself.
    """

    def __init__(
        self,
        jobs: int = 1,
        retries: int = 1,
        backoff: float = 0.5,
        cell_timeout: Optional[float] = None,
        chaos: Optional[SweepChaos] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.retries = retries
        self.backoff = backoff
        self.cell_timeout = cell_timeout
        self.chaos = chaos

    def run(
        self,
        scenario: str,
        seeds: Optional[Sequence[int]] = None,
        full: bool = False,
        health: Optional[RunHealth] = None,
    ) -> SweepReport:
        spec = get_scenario(scenario)  # raises KeyError for unknown names
        seed_list = list(spec.seeds) if seeds is None else list(seeds)
        if not seed_list:
            raise ValueError("sweep needs at least one seed")
        if len(set(seed_list)) != len(seed_list):
            raise ValueError(f"duplicate seeds in sweep: {seed_list}")
        if health is None:
            health = RunHealth()
        cells = [
            (spec.name, seed, full, self.chaos, 1, False) for seed in seed_list
        ]
        workers = min(self.jobs, len(cells))
        context = None
        snapshots: Dict[int, dict] = {}
        failures: Dict[int, str] = {}
        if workers <= 1:
            for cell in cells:
                seed, snapshot, error = _run_sweep_cell_guarded(cell)
                if error is None:
                    snapshots[seed] = snapshot
                else:
                    failures[seed] = error
        else:
            import multiprocessing  # where the pool starts; see sharded.py

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            with context.Pool(processes=workers) as pool:
                iterator = pool.imap_unordered(_run_sweep_cell_guarded, cells)
                try:
                    for _ in range(len(cells)):
                        seed, snapshot, error = iterator.next(self.cell_timeout)
                        if error is None:
                            snapshots[seed] = snapshot
                        else:
                            failures[seed] = error
                except multiprocessing.TimeoutError:
                    # Whatever seeds are still unaccounted for were stuck in
                    # (or behind) a wedged cell; the pool context manager
                    # terminates the stragglers, and every missing seed
                    # enters the recovery ladder below.
                    pass
            for seed in seed_list:
                if seed not in snapshots and seed not in failures:
                    failures[seed] = (
                        f"cell produced no result within {self.cell_timeout}s"
                    )
        for seed in seed_list:
            if seed not in failures:
                health.record_cell(seed, 1)
        # Recovery ladder, in sorted-seed order for reproducible retries.
        for seed in sorted(failures):
            last_error = failures[seed]
            attempts = 1
            snapshot = None
            rescued_by = None
            for retry in range(1, self.retries + 1):
                if self.backoff > 0:
                    time.sleep(self.backoff * 2 ** (retry - 1))
                attempts += 1
                cell = (spec.name, seed, full, self.chaos, attempts, False)
                if context is not None:
                    _, snapshot, error = _retry_in_fresh_process(
                        context, cell, self.cell_timeout
                    )
                else:
                    _, snapshot, error = _run_sweep_cell_guarded(cell)
                if error is None:
                    rescued_by = "retry"
                    break
                snapshot = None
                last_error = error
            if snapshot is None:
                # Graceful degradation: run the cell inline. Determinism
                # makes this exact, not approximate — an inline completion
                # is byte-identical to what the pool cell would have built.
                attempts += 1
                cell = (spec.name, seed, full, self.chaos, attempts, True)
                _, snapshot, error = _run_sweep_cell_guarded(cell)
                if error is None:
                    rescued_by = "inline-fallback"
                else:
                    health.record_cell(seed, attempts, error=error)
                    raise SweepCellError(spec.name, seed, attempts, error)
            health.record_cell(seed, attempts, rescued_by=rescued_by)
            snapshots[seed] = snapshot
        return merge_runs(spec.name, list(snapshots.items()), health=health)
