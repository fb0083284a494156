"""One scenario run sharded across worker processes: the shard plan, the
worker transports, the lockstep window coordinator, a shard's session and
the supervised runner. The protocol, the lookahead derivation, the
determinism argument and the failure modes are in ``docs/sharding.md``.
"""

from __future__ import annotations

import time as _time
import traceback
from dataclasses import dataclass, field
from math import ceil
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.checks import require_finite
from repro.experiments.builders import node_region_placement, organization_members
from repro.experiments.dissemination import deploy
from repro.faults.chaos import ChaosInjected, ShardChaos
from repro.metrics.runhealth import RunHealth
from repro.net.network import NetworkConfig
from repro.scenarios.runner import (
    ShardResult,
    arm,
    collect_result,
    dissemination_config,
    merge_shard_results,
    resolve,
    run_scenario,
)
from repro.scenarios.spec import ScenarioSpec
from repro.simulation import collector

__all__ = [
    "ShardSession",
    "ShardWorkerError",
    "ShardedScenarioRun",
    "merge_shard_results",
    "plan_for",
    "run_scenario_sharded",
]

# Below this lookahead the barrier grid would need >1000 windows per
# simulated second — all coordination, no progress. Such deployments run
# single-process instead (docs/sharding.md, "when shards=1 is forced").
MIN_LOOKAHEAD = 1e-3

MODES = ("auto", "processes", "inline")

# First element of the reply a worker process sends in place of a command's
# result when it raised (_shard_worker_main -> PipeTransport.collect_response).
_ERROR_SENTINEL = "__shard_error__"


# ----- the plan ---------------------------------------------------------------


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
            ``min_delay_between_regions``). Below :data:`MIN_LOOKAHEAD`
            the plan degrades to shards=1.

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

    if lookahead < MIN_LOOKAHEAD:
        return ShardPlan(
            shards=1,
            forced_reason=(
                f"lookahead {lookahead!r} below the {MIN_LOOKAHEAD!r} floor "
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


def plan_for(
    spec: ScenarioSpec, shards: int, seed: int = 1, full: bool = False
) -> ShardPlan:
    """The shard plan a scenario resolves to (deterministic per input).

    Both the coordinator and every worker call this and must agree, which
    they do because the node list, the region placement and the latency
    model parameters all derive from the frozen spec alone.
    """
    config = dissemination_config(spec, seed=seed, full=full)
    org_members = organization_members(config.n_peers, config.organizations)
    nodes = [name for members in org_members.values() for name in members]
    nodes.append("orderer")
    regions: Optional[Dict[str, str]] = None
    if config.org_regions:
        regions = node_region_placement(
            org_members, config.org_regions, config.orderer_region
        )
    model = (config.network or NetworkConfig()).latency
    return plan_shards(nodes, shards, regions=regions, latency_model=model)


# ----- supervision ------------------------------------------------------------


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

    def __post_init__(self) -> None:
        require_finite(self, "poll_interval", positive=True)
        if self.response_timeout is not None:
            require_finite(self, "response_timeout", positive=True)
        require_finite(self, "shutdown_join", "terminate_join", "kill_join")


# ----- transports -------------------------------------------------------------


class ShardTransport:
    """Synchronous command channel to one shard worker.

    :class:`InlineTransport` drives a session object in-process (tests,
    single-core fallbacks) and :class:`PipeTransport` drives a worker
    process over a ``multiprocessing`` pipe; each provides ``post``,
    ``collect_response`` and ``close``. The command vocabulary:

    * ``("window", end, records)`` — inject, run ``[now, end)``, reply
      ``(egress, local_done)``;
    * ``("tick", t, records)`` — inject, run events at exactly ``t``
      (inclusive), reply ``(egress, local_done)``;
    * ``("collect", None, None)`` — reply the shard's result payload;
    * ``("exit", None, None)`` — no reply, tear down.
    """

    def request(self, command: Tuple) -> object:
        self.post(command)
        return self.collect_response()

    def abort(self) -> None:
        """Tear down immediately after a sibling failed (no graceful exit)."""
        self.close()


class InlineTransport(ShardTransport):
    """Drive a shard session in the coordinator's own process."""

    def __init__(self, session) -> None:
        self.session = session
        self.shard_id = session.shard_id
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

    def close(self) -> None:
        self._pending = None


class PipeTransport(ShardTransport):
    """Drive a shard worker process over a duplex pipe, supervised.

    Replies are collected through a poll loop rather than a bare
    ``recv()``: every ``poll_interval`` the worker's liveness is checked
    (``Process.is_alive()`` / ``exitcode``), and an overall
    ``response_timeout`` bounds how long an *alive* worker may stay
    silent. A dead, wedged or disconnected worker therefore raises a
    structured :class:`ShardWorkerError` — never hangs the coordinator —
    and so does the error sentinel of a worker that raised.
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

    def _error(self, reason: str) -> ShardWorkerError:
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
                    break
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
        if self._in_flight_time is not None:
            self.last_window = self._in_flight_time
        self._in_flight = self._in_flight_time = None
        if isinstance(response, tuple) and response and response[0] == _ERROR_SENTINEL:
            payload = response[1]
            raise ShardWorkerError(
                "worker raised",
                shard_id=payload["shard_id"],
                last_window=self.last_window,
                command=payload["command"],
                remote_traceback=payload["traceback"],
            )
        return response

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


# ----- the coordinator --------------------------------------------------------


def _record_time(record) -> float:
    return record[1]


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
        deadline: float,
        idle_tail: float = 0.0,
        health=None,
    ) -> None:
        if len(transports) != plan.shards:
            raise ValueError("one transport per shard required")
        self.transports = list(transports)
        self.plan = plan
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


# ----- one shard --------------------------------------------------------------


class ShardSession:
    """One shard's live half of a sharded scenario run: the deployment
    built by :func:`~repro.experiments.dissemination.deploy` with only
    this shard's nodes, the rest of the membership held as names
    (docs/sharding.md, "Partitioning")."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int,
        plan: ShardPlan,
        shard_id: int,
        full: bool = False,
        chaos: Optional[ShardChaos] = None,
        attempt: int = 1,
    ) -> None:
        self.shard_id = shard_id
        # "raise"-mode chaos fires here, inside the command handler, so
        # it works on inline transports too; process-level modes (kill,
        # wedge, close, delay) fire in _shard_worker_main.
        self._chaos = (
            chaos
            if chaos is not None
            and chaos.mode == "raise"
            and chaos.applies(shard_id, attempt)
            else None
        )
        self._chaos_rng = self._chaos.make_rng() if self._chaos else None
        self._windows_seen = 0
        self.config = config = dissemination_config(spec, seed=seed, full=full)
        self.workload_end = config.blocks * config.block_period
        owned = frozenset(plan.owned_by(shard_id))
        self._egress: List[tuple] = []

        def prepare(net) -> None:
            net.network.enable_shard_egress(owned, self._egress)
            self.schedule = arm(spec, net)

        self.net = deploy(config, prepare, owned)

    # ----- command handling (shared by inline and process transports) ----

    def handle(self, command):
        op, time, records = command
        if op == "collect":
            return self.result()
        net = self.net
        if op == "window":
            self._windows_seen += 1
            if self._chaos is not None and self._chaos.fires(
                self._windows_seen, self._chaos_rng
            ):
                raise ChaosInjected(
                    f"chaos: shard {self.shard_id} raised at window command "
                    f"#{self._windows_seen} (t={time})"
                )
            advance = net.sim.run_window
        elif op == "tick":
            advance = net.sim.run
        else:
            raise ShardWorkerError(f"unknown shard command {op!r}")
        if records:
            net.network.inject_shard_records(records)
        advance(time)
        egress = list(self._egress)
        self._egress.clear()
        done = net.sim.now >= self.workload_end and net.all_peers_received(self.config.blocks)
        return egress, done

    def result(self) -> ShardResult:
        return collect_result(self.net, self.schedule, self.shard_id)


def _report_worker_error(conn, shard_id, command) -> None:
    """Best-effort: ship the traceback sentinel before going down."""
    try:
        conn.send(
            (
                _ERROR_SENTINEL,
                {
                    "traceback": traceback.format_exc(),
                    "shard_id": shard_id,
                    "command": command,
                },
            )
        )
    except (BrokenPipeError, OSError):
        pass


def _shard_worker_main(
    conn, spec, seed, shards, shard_id, full, chaos=None, attempt=1
) -> None:
    """Process-mode worker loop: build the session, serve commands."""
    op = None
    chaos_armed = (
        chaos is not None
        and chaos.mode != "raise"
        and chaos.applies(shard_id, attempt)
    )
    chaos_rng = chaos.make_rng() if chaos_armed else None
    windows_seen = 0
    try:
        with collector.deployment() as built:
            plan = plan_for(spec, shards, seed=seed, full=full)
            session = ShardSession(
                spec, seed, plan, shard_id, full=full, chaos=chaos, attempt=attempt
            )
            built()
            while True:
                command = conn.recv()
                op = command[0]
                if op == "exit":
                    return
                if chaos_armed and op == "window":
                    windows_seen += 1
                    if chaos.fires(windows_seen, chaos_rng):
                        # kill/close never return; wedge/delay sleep, then
                        # the command is served (late) below.
                        chaos.act_in_process(conn)
                conn.send(session.handle(command))
                op = None
    except EOFError:
        return
    except (KeyboardInterrupt, SystemExit):
        # Report the sentinel for the coordinator's benefit, then
        # RE-RAISE: swallowing these would leave Ctrl-C'd workers alive.
        _report_worker_error(conn, shard_id, op)
        raise
    except BaseException:
        _report_worker_error(conn, shard_id, op)


# ----- the runner -------------------------------------------------------------


@dataclass
class ShardedScenarioRun:
    """Outcome of one sharded scenario run for one seed.

    ``mode`` records how the snapshot was actually produced: a transport
    mode (``"processes"``/``"inline"``), ``"single"`` for a plan that
    resolved to one shard, or ``"degraded"`` when the supervision ladder
    exhausted its retries and re-executed single-process inline.
    """

    spec: ScenarioSpec
    seed: int
    plan: ShardPlan
    mode: str
    _snapshot: dict = field(repr=False)
    health: Optional[RunHealth] = None

    def snapshot(self) -> dict:
        return self._snapshot


def _drive_attempt(
    transports: list,
    spec: ScenarioSpec,
    seed: int,
    plan: ShardPlan,
    full: bool,
    health: RunHealth,
) -> dict:
    """Step ``transports`` through the window protocol and merge."""
    config = dissemination_config(spec, seed=seed, full=full)
    coordinator = WindowedCoordinator(
        transports,
        plan,
        deadline=config.blocks * config.block_period + config.grace_period,
        idle_tail=config.idle_tail,
        health=health,
    )
    try:
        coordinator.run()
        results = coordinator.collect()
    finally:
        coordinator.close()
    return merge_shard_results(spec, seed, results)


def _run_sharded_attempt(
    spec: ScenarioSpec,
    seed: int,
    shards: int,
    plan: ShardPlan,
    mode: str,
    full: bool,
    chaos: Optional[ShardChaos],
    attempt: int,
    supervision: SupervisionConfig,
    health: RunHealth,
) -> dict:
    """One supervised execution attempt: build transports, drive the
    window protocol, merge. Raises ShardWorkerError on worker failure
    (all siblings already reaped by the coordinator)."""
    if mode == "inline":
        # One collector scope for the process: every shard's deployment is
        # built before any of them is frozen. (A worker process opens its
        # own, in _shard_worker_main.)
        with collector.deployment() as built:
            transports = [
                InlineTransport(
                    ShardSession(
                        spec, seed, plan, shard_id, full=full, chaos=chaos, attempt=attempt
                    )
                )
                for shard_id in range(plan.shards)
            ]
            built()
            return _drive_attempt(transports, spec, seed, plan, full, health)
    # Imported where a process starts, so a single-process run never loads
    # it (0.6 MB of peak RSS on top of `import repro`, CPython 3.11).
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    transports = []
    for shard_id in range(plan.shards):
        parent, child = context.Pipe(duplex=True)
        process = context.Process(
            target=_shard_worker_main,
            args=(child, spec, seed, shards, shard_id, full, chaos, attempt),
            daemon=True,
        )
        process.start()
        child.close()
        transports.append(
            PipeTransport(parent, process, shard_id=shard_id, supervision=supervision)
        )
    return _drive_attempt(transports, spec, seed, plan, full, health)


def run_scenario_sharded(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    shards: Optional[int] = None,
    mode: str = "auto",
    full: bool = False,
    retries: int = 0,
    backoff: float = 0.5,
    degrade: bool = False,
    chaos: Optional[ShardChaos] = None,
    supervision: Optional[SupervisionConfig] = None,
    health: Optional[RunHealth] = None,
) -> ShardedScenarioRun:
    """Build, partition and drive one scenario run across shard workers.

    Args:
        scenario: registered name or spec.
        seed: defaults to the spec's first seed.
        shards: worker count; defaults to the spec's ``shards`` field.
            Plans that cannot hold the lookahead guarantee fall back to
            single-process execution (the returned plan says why).
        mode: ``"processes"`` (one OS process per shard), ``"inline"``
            (all shards stepped in one process — same protocol, same
            results, no parallelism), or ``"auto"`` (processes).
        full: run the spec's paper-scale workload.
        retries: extra full-run attempts after a worker failure. The run
            is bit-for-bit deterministic, so re-execution from scratch
            is a *correct* recovery — the retried snapshot is the
            snapshot the failed run would have produced.
        backoff: base sleep before retry ``k`` (``backoff * 2**(k-1)``
            seconds) — headroom for the transient cause (memory
            pressure, a rebooting core) to clear.
        degrade: after all retries fail, re-execute single-process
            inline (shards -> 1). Identical physics, no worker processes
            left to lose; ``mode`` reads ``"degraded"`` and the health
            report records why. Off by default so determinism gates can
            never silently pass on a degraded run.
        chaos: a :class:`~repro.faults.chaos.ShardChaos` injector for
            supervision tests (kill/wedge/close/delay need
            ``mode="processes"``).
        supervision: poll/deadline/teardown tuning
            (:class:`SupervisionConfig`).
        health: a :class:`~repro.metrics.runhealth.RunHealth` to append
            to; one is created (and returned on the run) if omitted.

    Raises:
        ValueError: ``shards`` below 1 or a ``mode`` outside
            :data:`MODES`, before any work is done.
    """
    spec, seed = resolve(scenario, seed)
    if shards is None:
        shards = spec.shards
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if health is None:
        health = RunHealth()
    supervision = supervision or SupervisionConfig()
    plan = plan_for(spec, shards, seed=seed, full=full)

    def single_process(how: str) -> ShardedScenarioRun:
        health.attempts += 1
        run = run_scenario(spec, seed=seed, full=full)
        return ShardedScenarioRun(
            spec=spec, seed=seed, plan=plan, mode=how,
            _snapshot=run.snapshot(), health=health,
        )

    if plan.shards == 1:
        return single_process("single")
    if mode == "auto":
        mode = "processes"
    if chaos is not None and mode == "inline" and chaos.mode != "raise":
        raise ValueError(
            f"chaos mode {chaos.mode!r} needs worker processes; "
            "inline transports only support 'raise'"
        )
    attempts = max(1, retries + 1)
    last_error: Optional[ShardWorkerError] = None
    for attempt in range(1, attempts + 1):
        health.attempts += 1
        if attempt > 1:
            health.restarts += 1
            if backoff > 0:
                _time.sleep(backoff * 2 ** (attempt - 2))
        try:
            snapshot = _run_sharded_attempt(
                spec, seed, shards, plan, mode, full, chaos, attempt,
                supervision, health,
            )
            return ShardedScenarioRun(
                spec=spec,
                seed=seed,
                plan=plan,
                mode=mode,
                _snapshot=snapshot,
                health=health,
            )
        except ShardWorkerError as exc:
            health.record_error(exc)
            last_error = exc
    if degrade:
        health.record_degradation(
            f"sharded run failed {attempts} attempt(s) "
            f"({last_error.reason if last_error else 'unknown'}); "
            "re-executed single-process inline (shards -> 1)"
        )
        return single_process("degraded")
    raise last_error
