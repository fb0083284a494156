"""Execution-runtime health: how the *runners* survived their faults.

:mod:`repro.metrics.resilience` reports how the simulated system coped
with simulated faults; this module is its counterpart one layer down —
how the execution infrastructure (shard worker processes, sweep pool
cells) coped with real process failures. A :class:`RunHealth` instance
rides along one sharded run or one sweep and accumulates:

* per-worker progress — windows and barrier ticks completed per shard,
  aggregate wall-clock per window round (total/max/mean);
* the supervision ledger — attempts, restarts, degradations (sharded
  run re-executed single-process; sweep cell rescued by the inline
  fallback), and every structured worker failure observed;
* per-cell sweep accounting — attempts, whether a retry or the inline
  fallback produced the result, and the last error text of cells that
  kept failing.

Unlike every simulation metric, run health is **not deterministic**: it
contains wall-clock timings and infrastructure failure records. It is
therefore exported *alongside* snapshots (the ``run_health`` key of
``repro-experiments run --json``, ``--health-json`` for sweeps) and is
excluded from every byte-identity comparison (``scripts/diff_snapshots.py``
ignores it by default; ``SweepReport.to_json`` never contains it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RunHealth:
    """Mutable health ledger for one supervised run (or one sweep)."""

    attempts: int = 0
    restarts: int = 0
    degradations: List[str] = field(default_factory=list)
    errors: List[dict] = field(default_factory=list)
    # Per-worker progress, keyed "shard-<id>".
    windows_completed: Dict[str, int] = field(default_factory=dict)
    ticks_completed: Dict[str, int] = field(default_factory=dict)
    window_rounds: int = 0
    window_wall_total: float = 0.0
    window_wall_max: float = 0.0
    tick_rounds: int = 0
    tick_wall_total: float = 0.0
    # Per-seed sweep cell accounting, keyed str(seed).
    cells: Dict[str, dict] = field(default_factory=dict)

    # ----- sharded-run recording -----------------------------------------

    def record_round(self, op: str, shard_ids, wall: float) -> None:
        """One completed lockstep exchange across all shards."""
        if op == "window":
            self.window_rounds += 1
            self.window_wall_total += wall
            if wall > self.window_wall_max:
                self.window_wall_max = wall
            counters = self.windows_completed
        else:
            self.tick_rounds += 1
            self.tick_wall_total += wall
            counters = self.ticks_completed
        for shard_id in shard_ids:
            key = f"shard-{shard_id}"
            counters[key] = counters.get(key, 0) + 1

    def record_error(self, error) -> None:
        """File a structured worker failure (a ShardWorkerError or any
        exception; structured fields are read when present)."""
        self.errors.append(
            {
                "reason": getattr(error, "reason", None) or str(error),
                "shard_id": getattr(error, "shard_id", None),
                "last_window": getattr(error, "last_window", None),
                "command": getattr(error, "command", None),
                "exitcode": getattr(error, "exitcode", None),
            }
        )

    def record_degradation(self, reason: str) -> None:
        self.degradations.append(reason)

    # ----- sweep recording ------------------------------------------------

    def record_cell(
        self,
        seed: int,
        attempts: int,
        rescued_by: Optional[str] = None,
        error: Optional[str] = None,
    ) -> None:
        """Outcome of one sweep cell: how many attempts it took, and —
        when it took more than one — what finally produced the result
        (``"retry"`` or ``"inline-fallback"``) or the last error text."""
        entry: dict = {"attempts": attempts}
        if rescued_by is not None:
            entry["rescued_by"] = rescued_by
        if error is not None:
            entry["error"] = error
        self.cells[str(seed)] = entry

    # ----- export ---------------------------------------------------------

    @property
    def retries(self) -> int:
        """Total extra attempts across sweep cells (0 for sharded runs)."""
        return sum(max(0, cell["attempts"] - 1) for cell in self.cells.values())

    def to_dict(self) -> dict:
        """JSON-stable export (sorted keys throughout)."""
        window_mean = (
            self.window_wall_total / self.window_rounds if self.window_rounds else 0.0
        )
        payload = {
            "attempts": self.attempts,
            "restarts": self.restarts,
            "retries": self.retries,
            "degradations": list(self.degradations),
            "errors": list(self.errors),
            "windows_completed": dict(sorted(self.windows_completed.items())),
            "ticks_completed": dict(sorted(self.ticks_completed.items())),
            "window_rounds": self.window_rounds,
            "window_wall_total_s": self.window_wall_total,
            "window_wall_mean_s": window_mean,
            "window_wall_max_s": self.window_wall_max,
            "tick_rounds": self.tick_rounds,
            "tick_wall_total_s": self.tick_wall_total,
        }
        if self.cells:
            payload["cells"] = dict(sorted(self.cells.items()))
        return payload
