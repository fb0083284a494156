"""Process-sharded execution of one simulation.

The sweep layer (PR 4) distributes *whole* simulations over worker
processes; this module shards *one* simulation across N workers so the
10k-peer regime fits in wall-clock budgets a single event loop cannot
reach. The design is a classic conservative (lookahead-based) parallel
discrete-event scheme, specialized to this codebase's determinism
contract:

Partitioning
------------

Nodes are partitioned by :func:`plan_shards`. When the deployment places
nodes in regions (a WAN scenario's ``TopologyLatency``), the partition is
**region-aligned**: whole regions map onto shards round-robin in sorted
region order, so the fast intra-region links never cross a shard boundary
and the lookahead is the minimum *inter-region* base delay. Without
regions, nodes round-robin individually and the lookahead falls back to
the latency model's global :meth:`~repro.net.latency.LatencyModel.
min_delay`.

Window protocol
---------------

All shards advance in lockstep over a fixed barrier grid. The window
length is ``1/m`` seconds with ``m = ceil(1 / lookahead)``, so barriers
land on exact machine numbers (``j / m``) and every integer second is a
barrier. Each round:

1. every shard executes its half-open window ``[t, t + 1/m)`` via the
   engine's :meth:`~repro.simulation._core.Simulator.run_window` hook
   (events at exactly the window edge stay pending);
2. shards hand their egress — cross-shard deliveries whose full send-side
   physics (monitor accounting, uplink reservation, per-source latency
   draw) already happened on the sender's shard — to the coordinator as
   pre-serialized record batches;
3. the coordinator routes each record to its destination's owner shard,
   sorts every shard's batch by the canonical ``(time, source shard,
   send order)`` key, and injects it before the next window runs.

A message sent during ``[t, t + 1/m)`` is in flight for at least the
lookahead ``L >= 1/m``, so it arrives at or after the next barrier —
never inside a window another shard has already executed. That is the
whole correctness argument; everything else is bookkeeping.

At integer-second barriers the coordinator additionally lets every shard
run its events at *exactly* the barrier time (mirroring the inclusive
``run(until=k)`` steps of the single-process driver) and evaluates the
global completion predicate, so the merged run terminates at the same
simulated instant as the single-process run.

Determinism
-----------

Bit-for-bit equality of the merged run with the single-process run rests
on three invariants, spelled out in ``docs/sharding.md``:

* every random draw is keyed to a single node (per-peer gossip streams,
  per-source ``network:latency:<src>`` streams), so draw sequences depend
  only on that node's own event order;
* each node's event order is preserved because all its events are either
  produced on its own shard or injected at barriers strictly before their
  time;
* all merged accounting (monitor, tracker, drop counters) is either
  integer sums or computed from sorted sample multisets.

The engine-internal ``events_executed`` counter is the one quantity that
legitimately differs across shard counts (exact-tie delivery grouping is
shard-local), which is why the sharded determinism gate compares every
golden metric *except* it.

Supervision
-----------

Worker processes are supervised, not trusted: replies are collected via
a poll loop with liveness checks and a response deadline
(:class:`SupervisionConfig`), so a worker that is OOM-killed, wedged or
disconnected raises a structured :class:`ShardWorkerError` — shard id,
last completed window, command in flight, exit code — instead of
hanging the coordinator on a bare ``recv()``; the coordinator then
terminates and reaps every sibling. Because runs are bit-for-bit
deterministic, recovery is deterministic re-execution, implemented one
layer up (:func:`repro.scenarios.sharded.run_scenario_sharded`'s retry/
degradation ladder; see docs/sharding.md, "Failure modes and recovery").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from time import monotonic, perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Below this lookahead the barrier grid would need >1000 windows per
# simulated second — all coordination, no progress. Such deployments run
# single-process instead (docs/sharding.md, "when shards=1 is forced").
MIN_LOOKAHEAD = 1e-3


@dataclass(frozen=True)
class ShardPlan:
    """The partition and synchronization parameters of one sharded run.

    ``shards == 1`` means single-process execution (either requested or
    forced; ``forced_reason`` says why). ``windows_per_second`` is the
    barrier-grid denominator ``m``: barriers sit at ``j / m`` for integer
    ``j``, which keeps them exact machine numbers and makes every integer
    second a barrier.
    """

    shards: int
    owner_of: Dict[str, int] = field(default_factory=dict)
    lookahead: float = 0.0
    windows_per_second: int = 1
    forced_reason: Optional[str] = None

    @property
    def window(self) -> float:
        return 1.0 / self.windows_per_second

    def owned_by(self, shard_id: int) -> List[str]:
        return [name for name, owner in self.owner_of.items() if owner == shard_id]


def _round_robin(names: Sequence[str], shards: int) -> Dict[str, int]:
    # (len, name) ordering ranks peer-2 before peer-10 without parsing.
    ordered = sorted(names, key=lambda name: (len(name), name))
    return {name: index % shards for index, name in enumerate(ordered)}


def plan_shards(
    nodes: Sequence[str],
    shards: int,
    regions: Optional[Dict[str, str]] = None,
    latency_model=None,
    min_lookahead: float = MIN_LOOKAHEAD,
) -> ShardPlan:
    """Partition ``nodes`` and derive the window lookahead.

    Args:
        nodes: every simulated node, including the orderer.
        shards: requested worker count; the effective count may be lower
            (never more shards than regions in a region-aligned plan, or
            than nodes).
        regions: node -> region placement, when the deployment has one.
            Placements covering every node yield a region-aligned
            partition.
        latency_model: the deployment's latency model; supplies the
            lookahead bound (``min_delay`` /
            ``min_delay_between_regions``).
        min_lookahead: below this bound the plan degrades to shards=1.

    A region-aligned plan's lookahead is the minimum over *cross-shard
    region pairs*: every message that crosses a shard draws its own
    latency on its own link (``send``/``multicast``), and the one path
    that shares a draw across a fanout, ``send_aggregate``, schedules no
    delivery at all.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return ShardPlan(shards=1)
    if latency_model is None:
        return ShardPlan(shards=1, forced_reason="no latency model to derive a lookahead from")

    region_aligned = bool(regions) and all(node in regions for node in nodes)
    if region_aligned:
        distinct = sorted(set(regions[node] for node in nodes))
        effective = min(shards, len(distinct), len(nodes))
        if effective < 2:
            return ShardPlan(
                shards=1,
                forced_reason="region-aligned plan has fewer than two populated shards",
            )
        region_shard = {region: index % effective for index, region in enumerate(distinct)}
        owner_of = {node: region_shard[regions[node]] for node in nodes}
        min_between = getattr(latency_model, "min_delay_between_regions", None)
        if min_between is not None:
            lookahead = min(
                (
                    min_between(a, b)
                    for a in distinct
                    for b in distinct
                    if region_shard[a] != region_shard[b]
                ),
                default=0.0,
            )
        else:
            lookahead = latency_model.min_delay()
    else:
        effective = min(shards, len(nodes))
        if effective < 2:
            return ShardPlan(shards=1, forced_reason="fewer than two nodes to partition")
        owner_of = _round_robin(nodes, effective)
        lookahead = latency_model.min_delay()

    if lookahead < min_lookahead:
        return ShardPlan(
            shards=1,
            forced_reason=(
                f"lookahead {lookahead!r} below the {min_lookahead!r} floor "
                "(sub-lookahead latencies make windows degenerate)"
            ),
        )
    windows_per_second = max(1, ceil(1.0 / lookahead))
    # Guard against float-boundary cases where 1/m could exceed the
    # lookahead by one ulp.
    while windows_per_second * lookahead < 1.0:
        windows_per_second += 1
    return ShardPlan(
        shards=effective,
        owner_of=owner_of,
        lookahead=lookahead,
        windows_per_second=windows_per_second,
    )


class ShardWorkerError(RuntimeError):
    """A shard worker failed: died, wedged, closed its pipe, or raised.

    Structured so the supervisor (and :class:`~repro.metrics.runhealth.
    RunHealth`) can record exactly what was lost: which shard, the last
    window barrier it completed, the command that was in flight, the OS
    exit code when the process is gone, and the remote traceback when
    the worker managed to report one before dying.
    """

    def __init__(
        self,
        reason: str,
        shard_id: Optional[int] = None,
        last_window: Optional[float] = None,
        command: Optional[str] = None,
        exitcode: Optional[int] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        self.reason = reason
        self.shard_id = shard_id
        self.last_window = last_window
        self.command = command
        self.exitcode = exitcode
        self.remote_traceback = remote_traceback
        details = []
        if shard_id is not None:
            details.append(f"shard={shard_id}")
        if command is not None:
            details.append(f"command={command!r}")
        if last_window is not None:
            details.append(f"last_completed_window={last_window}")
        if exitcode is not None:
            details.append(f"exitcode={exitcode}")
        message = reason if not details else f"{reason} ({', '.join(details)})"
        if remote_traceback:
            message = f"{message}\n--- worker traceback ---\n{remote_traceback}"
        super().__init__(message)


@dataclass(frozen=True)
class SupervisionConfig:
    """Deadlines and escalation steps of the shard supervisor.

    ``response_timeout`` bounds how long the coordinator waits for one
    command's reply from a worker that is still *alive* — a wedged
    worker (stuck in a loop, swapping, blocked on I/O) trips it and
    raises :class:`ShardWorkerError` instead of hanging the run forever;
    ``None`` waits indefinitely (liveness checks still catch dead
    workers within ``poll_interval``). The join timeouts govern teardown
    escalation: graceful exit -> ``terminate()`` (SIGTERM) ->
    ``kill()`` (SIGKILL), each bounded, so not even a SIGKILL-immune
    worker can block interpreter exit.
    """

    poll_interval: float = 0.05
    response_timeout: Optional[float] = 600.0
    shutdown_join: float = 30.0
    terminate_join: float = 5.0
    kill_join: float = 2.0


class ShardTransport:
    """Synchronous command channel to one shard worker.

    Two implementations exist: :class:`InlineTransport` drives a session
    object in-process (tests, single-core fallbacks) and
    :class:`PipeTransport` drives a worker process over a
    ``multiprocessing`` pipe. The command vocabulary:

    * ``("window", end, records)`` — inject, run ``[now, end)``, reply
      ``(egress, local_done)``;
    * ``("tick", t, records)`` — inject, run events at exactly ``t``
      (inclusive), reply ``(egress, local_done)``;
    * ``("collect", None, None)`` — reply the shard's result payload;
    * ``("exit", None, None)`` — no reply, tear down.
    """

    def request(self, command: Tuple) -> object:  # pragma: no cover - interface
        raise NotImplementedError

    def post(self, command: Tuple) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def collect_response(self) -> object:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def abort(self) -> None:
        """Tear down immediately after a sibling failed (no graceful exit)."""
        self.close()


class InlineTransport(ShardTransport):
    """Drive a shard session in the coordinator's own process."""

    def __init__(self, session, shard_id: Optional[int] = None) -> None:
        self.session = session
        self.shard_id = (
            shard_id if shard_id is not None else getattr(session, "shard_id", None)
        )
        self.last_window: Optional[float] = None
        self._pending: Optional[object] = None

    def post(self, command: Tuple) -> None:
        # Uniform failure surface with the process transport: any
        # exception out of the session's handler becomes a structured
        # ShardWorkerError, so the supervision ladder above does not
        # care which transport it is driving.
        try:
            self._pending = self.session.handle(command)
        except ShardWorkerError:
            raise
        except Exception as exc:
            import traceback

            raise ShardWorkerError(
                f"inline shard session raised: {exc}",
                shard_id=self.shard_id,
                last_window=self.last_window,
                command=command[0],
                remote_traceback=traceback.format_exc(),
            ) from exc
        if command[0] in ("window", "tick"):
            self.last_window = command[1]

    def collect_response(self) -> object:
        response, self._pending = self._pending, None
        return response

    def request(self, command: Tuple) -> object:
        self.post(command)
        return self.collect_response()

    def close(self) -> None:
        self._pending = None

    def abort(self) -> None:
        self._pending = None


class PipeTransport(ShardTransport):
    """Drive a shard worker process over a duplex pipe, supervised.

    Replies are collected through a poll loop rather than a bare
    ``recv()``: every ``poll_interval`` the worker's liveness is checked
    (``Process.is_alive()`` / ``exitcode``), and an overall
    ``response_timeout`` bounds how long an *alive* worker may stay
    silent. A dead, wedged or disconnected worker therefore raises a
    structured :class:`ShardWorkerError` — never hangs the coordinator.
    """

    def __init__(
        self,
        connection,
        process,
        shard_id: Optional[int] = None,
        supervision: Optional[SupervisionConfig] = None,
    ) -> None:
        self.connection = connection
        self.process = process
        self.shard_id = shard_id
        self.supervision = supervision or SupervisionConfig()
        self.last_window: Optional[float] = None
        self._in_flight: Optional[str] = None
        self._in_flight_time: Optional[float] = None
        self._closed = False

    def _error(self, reason: str, remote_traceback: Optional[str] = None):
        # A pipe EOF can race ahead of process reaping: give the worker a
        # moment to be collected so the exit code makes it into the report.
        self.process.join(0.2)
        exitcode = None if self.process.is_alive() else self.process.exitcode
        return ShardWorkerError(
            reason,
            shard_id=self.shard_id,
            last_window=self.last_window,
            command=self._in_flight,
            exitcode=exitcode,
            remote_traceback=remote_traceback,
        )

    def post(self, command: Tuple) -> None:
        self._in_flight = command[0]
        self._in_flight_time = command[1] if command[0] in ("window", "tick") else None
        try:
            self.connection.send(command)
        except (BrokenPipeError, OSError) as exc:
            raise self._error(f"pipe write failed: {exc}") from exc

    def collect_response(self) -> object:
        supervision = self.supervision
        deadline = (
            None
            if supervision.response_timeout is None
            else monotonic() + supervision.response_timeout
        )
        while True:
            try:
                if self.connection.poll(supervision.poll_interval):
                    response = self.connection.recv()
                    if self._in_flight_time is not None:
                        self.last_window = self._in_flight_time
                    self._in_flight = self._in_flight_time = None
                    return response
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise self._error(f"pipe closed mid-command: {exc!r}") from exc
            if not self.process.is_alive():
                # A final message may still sit in the pipe buffer; loop
                # once more with a zero-ish poll before declaring death.
                try:
                    if self.connection.poll(0):
                        continue
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise self._error(
                    f"worker process died (exit code {self.process.exitcode})"
                )
            if deadline is not None and monotonic() > deadline:
                raise self._error(
                    f"no response within {supervision.response_timeout}s "
                    "(worker alive but unresponsive)"
                )

    def request(self, command: Tuple) -> object:
        self.post(command)
        return self.collect_response()

    def _escalate(self) -> None:
        """join -> terminate -> kill, each bounded, then give up: a
        SIGKILL-immune worker must not block interpreter exit (it is a
        daemon process; the interpreter reaps it on shutdown)."""
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=self.supervision.terminate_join)
        if process.is_alive():  # pragma: no cover - SIGTERM-immune worker
            kill = getattr(process, "kill", process.terminate)
            kill()
            process.join(timeout=self.supervision.kill_join)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.connection.send(("exit", None, None))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self.process.join(timeout=self.supervision.shutdown_join)
        self._escalate()

    def abort(self) -> None:
        """Immediate teardown after a failure: no graceful exit command,
        straight to terminate/kill so sibling reaping is prompt."""
        if self._closed:
            return
        self._closed = True
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._escalate()


class WindowedCoordinator:
    """Lockstep barrier loop over a set of shard transports.

    Reproduces the single-process driver's control flow — 1-second
    predicate steps to completion (or :class:`TimeoutError` at the
    deadline), then the idle tail — on the sharded barrier grid, routing
    cross-shard record batches between windows.
    """

    def __init__(
        self,
        transports: Sequence[ShardTransport],
        plan: ShardPlan,
        workload_end: float,
        deadline: float,
        idle_tail: float = 0.0,
        health=None,
    ) -> None:
        if len(transports) != plan.shards:
            raise ValueError("one transport per shard required")
        self.transports = list(transports)
        self.plan = plan
        self.workload_end = workload_end
        self.deadline = deadline
        self.idle_tail = idle_tail
        self.health = health
        self._pending: List[list] = [[] for _ in transports]

    def _fail(self, error: ShardWorkerError):
        """A worker failed mid-round: reap every sibling immediately
        (terminate/kill, bounded joins) and surface the structured error."""
        for transport in self.transports:
            transport.abort()
        raise error

    def _round(self, op: str, time: float) -> List[object]:
        """One lockstep exchange: command all shards, gather all replies,
        route the egress batches for the next round."""
        start = perf_counter()
        transports = self.transports
        pending = self._pending
        for index, transport in enumerate(transports):
            batch = pending[index]
            if batch:
                # Canonical injection order: stable sort by time keeps
                # equal-time records in (source shard, send order) — the
                # deterministic cross-shard tiebreak (docs/sharding.md).
                batch.sort(key=_record_time)
            try:
                transport.post((op, time, batch))
            except ShardWorkerError as exc:
                self._fail(exc)
            pending[index] = []
        replies: List[object] = []
        failure: Optional[ShardWorkerError] = None
        for transport in transports:
            # Keep collecting after a failure: siblings that answered
            # this round are drained (not left mid-write), and the FIRST
            # failure is the one reported.
            try:
                replies.append(transport.collect_response())
            except ShardWorkerError as exc:
                if failure is None:
                    failure = exc
                replies.append(None)
        if failure is not None:
            self._fail(failure)
        owner_of = self.plan.owner_of
        for egress, _done in replies:
            for record in egress:
                pending[owner_of[record[3]]].append(record)
        if self.health is not None:
            self.health.record_round(
                op,
                [
                    transport.shard_id if transport.shard_id is not None else index
                    for index, transport in enumerate(transports)
                ],
                perf_counter() - start,
            )
        return replies

    def run(self) -> float:
        """Drive the run to completion; returns the final simulated time."""
        m = self.plan.windows_per_second
        j = 0
        done_at: Optional[float] = None
        while done_at is None:
            j += 1
            barrier = j / m
            self._round("window", barrier)
            if j % m == 0:
                replies = self._round("tick", barrier)
                if all(done for _egress, done in replies):
                    done_at = barrier
                elif barrier >= self.deadline:
                    raise TimeoutError(
                        f"sharded run still incomplete at t={barrier} "
                        f"(deadline {self.deadline})"
                    )
        end_of_measurement = done_at + self.idle_tail
        if self.idle_tail > 0:
            while True:
                j += 1
                barrier = j / m
                if barrier >= end_of_measurement:
                    break
                self._round("window", barrier)
            self._round("window", end_of_measurement)
            self._round("tick", end_of_measurement)
        return end_of_measurement

    def collect(self) -> List[object]:
        """Fetch every shard's result payload."""
        return [
            transport.request(("collect", None, None)) for transport in self.transports
        ]

    def close(self) -> None:
        for transport in self.transports:
            transport.close()


def _record_time(record) -> float:
    return record[1]


RunDriver = Callable[[WindowedCoordinator], float]
