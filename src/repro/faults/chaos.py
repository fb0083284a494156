"""Chaos injection for the execution runtime itself.

Every other module in :mod:`repro.faults` breaks the *simulated* system;
this one breaks the **runners** — the shard worker processes and sweep
pool cells that execute simulations — so the supervision layer
(:mod:`repro.scenarios.sharded`, :mod:`repro.scenarios.sweep`) can be
tested against the failures it exists for: an OOM-killed worker, a
wedged process, a closed pipe, a cell that raises.

Two injector specs, both frozen and picklable (they cross the process
boundary as worker arguments):

* :class:`ShardChaos` — fires on one shard worker at the K-th window
  command (or probabilistically per window from a seeded RNG stream, so
  probabilistic chaos replays deterministically). Modes: ``kill`` (the
  process exits hard, exit code 137, as the OOM killer would), ``raise``
  (an exception inside the command handler — the one mode that also
  works on inline transports), ``wedge`` (the worker stops responding
  but stays alive), ``close`` (the worker closes its pipe), ``delay``
  (the worker answers late — proving the supervisor's poll loop
  tolerates slow workers without false positives).
* :class:`SweepChaos` — marks sweep seeds whose cells crash (for the
  first ``crash_attempts`` attempts, or every worker attempt when
  ``None``) or run slow. The inline fallback is spared by default —
  chaos models *infrastructure* failure, and the in-coordinator rerun
  has no infrastructure to lose — set ``spare_inline=False`` to model a
  genuinely broken cell instead.

Chaos is deterministic per (spec, attempt): ``only_attempt`` limits a
shard injection to one supervision attempt so a restarted run recovers,
and ``rng_seed`` pins the probabilistic mode's draw sequence. Knobs are
reachable from the CLI via ``repro-experiments run --chaos MODE:SHARD@K``
(see docs/sharding.md, "Failure modes and recovery").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

SHARD_CHAOS_MODES = ("kill", "raise", "wedge", "close", "delay")

# Mirrors the exit code the kernel OOM killer produces (128 + SIGKILL).
KILL_EXIT_CODE = 137


class ChaosInjected(RuntimeError):
    """Raised by ``raise``-mode chaos inside a worker command handler."""


@dataclass(frozen=True)
class ShardChaos:
    """Break one shard worker at a chosen window barrier."""

    shard_id: int = 0
    at_window: int = 1  # 1-based index of "window" commands seen
    mode: str = "kill"
    only_attempt: Optional[int] = 1  # None = fire on every attempt
    wedge_seconds: float = 3600.0
    delay_seconds: float = 0.25
    kill_probability: float = 0.0  # >0 switches to per-window RNG draws
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in SHARD_CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; choose from {SHARD_CHAOS_MODES}"
            )
        if self.at_window < 1:
            raise ValueError(f"at_window must be >= 1, got {self.at_window}")
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ValueError("kill_probability must be within [0, 1]")

    def applies(self, shard_id: int, attempt: int) -> bool:
        """Is this worker, on this supervision attempt, the target?"""
        if shard_id != self.shard_id:
            return False
        return self.only_attempt is None or attempt == self.only_attempt

    def make_rng(self):
        """The injector's own seeded stream (probabilistic mode)."""
        import random

        return random.Random(self.rng_seed)

    def fires(self, window_index: int, rng=None) -> bool:
        """Does the injection trigger at this (1-based) window command?"""
        if self.kill_probability > 0.0:
            if rng is None:
                raise ValueError("probabilistic chaos needs the injector's rng")
            return rng.random() < self.kill_probability
        return window_index == self.at_window

    def act_in_process(self, conn) -> None:
        """Execute a process-level mode inside the worker loop.

        ``raise`` is NOT handled here — it fires inside the session's
        command handler so it also works on inline transports.
        """
        if self.mode == "kill":
            os._exit(KILL_EXIT_CODE)
        elif self.mode == "wedge":
            time.sleep(self.wedge_seconds)
        elif self.mode == "close":
            conn.close()
            os._exit(0)
        elif self.mode == "delay":
            time.sleep(self.delay_seconds)


@dataclass(frozen=True)
class SweepChaos:
    """Break selected sweep cells (by seed)."""

    crash_seeds: Tuple[int, ...] = ()
    crash_attempts: Optional[int] = 1  # None = every worker attempt crashes
    spare_inline: bool = True
    slow_seeds: Tuple[int, ...] = ()
    slow_seconds: float = 0.0

    def cell_should_crash(self, seed: int, attempt: int, inline: bool = False) -> bool:
        if seed not in self.crash_seeds:
            return False
        if inline and self.spare_inline:
            return False
        return self.crash_attempts is None or attempt <= self.crash_attempts

    def cell_delay(self, seed: int) -> float:
        return self.slow_seconds if seed in self.slow_seeds else 0.0

    def apply(self, seed: int, attempt: int, inline: bool = False) -> None:
        """Called at the top of a sweep cell: sleep and/or crash.

        ``spare_inline`` spares the inline fallback from the slowdown as
        well as the crash — both model infrastructure faults.
        """
        if not (inline and self.spare_inline):
            delay = self.cell_delay(seed)
            if delay > 0.0:
                time.sleep(delay)
        if self.cell_should_crash(seed, attempt, inline=inline):
            raise ChaosInjected(
                f"sweep chaos: cell seed={seed} crashed on attempt {attempt}"
            )


def parse_shard_chaos(spec: str) -> ShardChaos:
    """Parse the CLI form ``MODE:SHARD@WINDOW``, e.g. ``kill:1@3``.

    Appending ``!`` (``kill:1@3!``) fires on *every* supervision attempt
    instead of only the first — the knob that exercises the degradation
    ladder rather than the restart path.
    """
    every_attempt = spec.endswith("!")
    if every_attempt:
        spec = spec[:-1]
    try:
        mode, target = spec.split(":", 1)
        shard_text, window_text = target.split("@", 1)
        shard_id, at_window = int(shard_text), int(window_text)
    except ValueError:
        raise ValueError(
            f"bad chaos spec {spec!r}: expected MODE:SHARD@WINDOW (e.g. kill:1@3)"
        ) from None
    return ShardChaos(
        shard_id=shard_id,
        at_window=at_window,
        mode=mode,
        only_attempt=None if every_attempt else 1,
    )
