"""Run one declarative scenario sharded across worker processes.

This is the scenario-aware half of the process-sharding subsystem: the
generic window protocol, shard planning and transports live in
:mod:`repro.simulation.sharded`; this module knows how to build one
shard's view of a scenario deployment (full deterministic construction,
partitioned *execution*), how to exchange cross-shard deliveries, and how
to merge per-shard results into the exact snapshot a single-process
:func:`~repro.scenarios.runner.run_scenario` produces.

Replicated state, partitioned execution
---------------------------------------

Every worker builds the *entire* deployment from ``(spec, seed)`` — the
construction is deterministic and draws nothing: a named RNG stream is
seeded from ``(master_seed, name)`` at its first draw, so all workers hold
identical initial state and a foreign peer's replica, never started,
holds no RNG state at all. A shard then *executes* only
its owned nodes: only owned peers' timers are armed, the orderer's block
driver runs on the orderer's owner shard, and sends to foreign
destinations are captured by the network's egress queue
(:meth:`~repro.net.network.Network.enable_shard_egress`) after their full
send-side physics, to be injected on the destination's shard at the next
window barrier. Foreign peers' message handlers are replaced with guards
that raise — a mis-routed delivery is a bug, never silent corruption.

Fault schedules compile through the same
:func:`~repro.faults.schedule.compile_fault_schedule` the single-process
runner uses, with ``owned`` naming this shard's nodes: global state
transitions (disconnect flags, drop predicates, view membership) are
armed on every shard, while peer lifecycle (crash/recover, start-at-join,
shutdown-at-leave) runs only on the owner shard. Probabilistic injectors
draw from per-source RNG streams keyed to the sending node, so every
fault event — including degrade, adversary and churn events — replays
bit-for-bit at any shard count (docs/faults.md).
"""

from __future__ import annotations

import multiprocessing
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.builders import (
    build_network,
    node_region_placement,
    organization_members,
)
from repro.fabric.config import PeerConfig, ValidationMode
from repro.experiments.workloads import synthetic_block_transactions
from repro.faults.chaos import ChaosInjected, ShardChaos
from repro.faults.schedule import compile_fault_schedule
from repro.metrics.latency import DisseminationTracker
from repro.metrics.resilience import peer_resilience_counters, resilience_snapshot
from repro.metrics.runhealth import RunHealth
from repro.net.link import merge_queue_accounting, summarize_queue_accounting
from repro.net.network import NetworkConfig
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import dissemination_config, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation import collector
from repro.simulation._core import TrafficMonitor
from repro.simulation.sharded import (
    InlineTransport,
    PipeTransport,
    ShardPlan,
    ShardWorkerError,
    SupervisionConfig,
    WindowedCoordinator,
    plan_shards,
)

__all__ = [
    "ShardSession",
    "ShardWorkerError",
    "ShardedScenarioRun",
    "merge_shard_results",
    "plan_for",
    "run_scenario_sharded",
]

_ERROR_SENTINEL = "__shard_error__"


def plan_for(
    spec: ScenarioSpec, shards: int, seed: int = 1, full: bool = False
) -> ShardPlan:
    """The shard plan a scenario resolves to (deterministic per input).

    Both the coordinator and every worker call this and must agree, which
    they do because the node list, the region placement and the latency
    model parameters all derive from the frozen spec alone.
    """
    if shards <= 1:
        return ShardPlan(shards=1)
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


@dataclass
class ShardResult:
    """One shard's contribution to the merged run (picklable)."""

    shard_id: int
    events_executed: int
    final_time: float
    monitor: TrafficMonitor
    tracker: DisseminationTracker
    dropped_messages: int
    blocks_via_recovery: int
    # Hardening counters summed over this shard's owned peers, plus the
    # shard's injector drop count — each recorded on exactly one shard,
    # so the merge sums them. Membership counters are replicated global
    # state (every shard applies every join/leave), so the merge takes
    # them from one shard instead of summing.
    resilience_counters: Dict[str, int] = field(default_factory=dict)
    faults_dropped: int = 0
    peers_joined: int = 0
    peers_departed: int = 0
    # Bottleneck-link queue accounting for this shard's owned sources
    # (disjoint across shards — every source is executed by exactly one
    # shard), merged into the snapshot's ``link`` section.
    link_enabled: bool = False
    queue_accounting: Dict[str, list] = field(default_factory=dict)


def _foreign_handler(name: str, shard_id: int):
    def guard(src, message):
        raise AssertionError(
            f"shard {shard_id} executed a delivery for foreign node {name!r} "
            f"(from {src!r}) — cross-shard routing bug"
        )

    return guard


class ShardSession:
    """One shard's live half of a sharded scenario run."""

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
        self.spec = spec
        self.seed = seed
        self.plan = plan
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
        config = dissemination_config(spec, seed=seed, full=full)
        self.config = config
        self.workload_end = config.blocks * config.block_period
        net = build_network(
            n_peers=config.n_peers,
            gossip=config.gossip,
            seed=config.seed,
            organizations=config.organizations,
            network_config=config.network,
            peer_config=PeerConfig(
                per_tx_validation_time=config.per_tx_validation_time,
                validation_mode=ValidationMode.DELAY_ONLY,
            ),
            background=config.background,
            org_regions=config.org_regions,
            orderer_region=config.orderer_region,
        )
        self.net = net
        owned = frozenset(plan.owned_by(shard_id))
        self.owned = owned
        self.owned_peers = [name for name in net.peers if name in owned]
        self._egress: List[tuple] = []
        net.network.enable_shard_egress(owned, self._egress)
        # A delivery for a node another shard executes is a routing bug:
        # replace_handler also drops the replica's class table, so the
        # guard cannot be bypassed.
        for name in [*net.peers, "orderer"]:
            if name not in owned:
                net.network.replace_handler(name, _foreign_handler(name, shard_id))
        self.schedule = compile_fault_schedule(spec.faults, net, owned=owned)
        for name in self.owned_peers:
            net.peers[name].start()
        if "orderer" in owned:
            transactions = synthetic_block_transactions(
                config.tx_per_block, config.tx_size
            )
            for index in range(config.blocks):
                net.sim.schedule_at(
                    (index + 1) * config.block_period,
                    net.orderer.emit_block,
                    transactions,
                )

    # ----- command handling (shared by inline and process transports) ----

    def handle(self, command):
        op, time, records = command
        if op == "window":
            self._windows_seen += 1
            if self._chaos is not None and self._chaos.fires(
                self._windows_seen, self._chaos_rng
            ):
                raise ChaosInjected(
                    f"chaos: shard {self.shard_id} raised at window command "
                    f"#{self._windows_seen} (t={time})"
                )
            if records:
                self.net.network.inject_shard_records(records)
            self.net.sim.run_window(time)
            return self._drain(), self._local_done()
        if op == "tick":
            if records:
                self.net.network.inject_shard_records(records)
            self.net.sim.run(until=time)
            return self._drain(), self._local_done()
        if op == "collect":
            return self.result()
        raise ShardWorkerError(f"unknown shard command {op!r}")

    def _drain(self) -> List[tuple]:
        batch = list(self._egress)
        self._egress.clear()
        return batch

    def _local_done(self) -> bool:
        if self.net.sim.now < self.workload_end:
            return False
        block_count = self.config.blocks
        for name in self.owned_peers:
            peer = self.net.peers[name]
            if peer.departed:
                continue  # left the membership for good; will never catch up
            chain = peer.blockchain
            if chain.max_known_number() < block_count - 1:
                return False
            if chain.missing_ranges(block_count):
                return False
        return True

    def result(self) -> ShardResult:
        net = self.net
        return ShardResult(
            shard_id=self.shard_id,
            events_executed=net.sim.events_executed,
            final_time=net.sim.now,
            monitor=net.network.monitor,
            tracker=net.tracker,
            dropped_messages=net.network.dropped_messages,
            blocks_via_recovery=sum(
                net.peers[name].blocks_received_via.get("recovery", 0)
                for name in self.owned_peers
            ),
            resilience_counters=peer_resilience_counters(
                net.peers[name] for name in self.owned_peers
            ),
            faults_dropped=self.schedule.dropped_messages,
            peers_joined=self.schedule.peers_joined,
            peers_departed=self.schedule.peers_departed,
            link_enabled=net.network._link is not None,
            queue_accounting=net.network.queue_accounting(),
        )


def _report_worker_error(conn, shard_id, command) -> None:
    """Best-effort: ship the traceback sentinel before going down."""
    import traceback

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


class _CheckedPipeTransport(PipeTransport):
    def collect_response(self):
        response = super().collect_response()
        if isinstance(response, tuple) and response and response[0] == _ERROR_SENTINEL:
            payload = response[1]
            if isinstance(payload, dict):  # structured sentinel
                raise ShardWorkerError(
                    "worker raised",
                    shard_id=payload.get("shard_id", self.shard_id),
                    last_window=self.last_window,
                    command=payload.get("command"),
                    remote_traceback=payload.get("traceback"),
                )
            raise ShardWorkerError(
                "worker raised",
                shard_id=self.shard_id,
                last_window=self.last_window,
                remote_traceback=str(payload),
            )
        return response


def merge_shard_results(
    spec: ScenarioSpec, seed: int, results: Sequence[ShardResult]
) -> dict:
    """Merge per-shard results into a single-process-shaped snapshot.

    Identical to :meth:`repro.scenarios.runner.ScenarioRun.snapshot` for
    every physics metric; ``events_executed`` is the merged sum of the
    per-shard engine counters, which legitimately differs from the
    single-process count (exact-tie delivery grouping is shard-local —
    see docs/sharding.md).
    """
    ordered = sorted(results, key=lambda result: result.shard_id)
    final_times = {result.final_time for result in ordered}
    if len(final_times) != 1:
        raise ShardWorkerError(f"shards ended at different times: {sorted(final_times)}")
    monitor = ordered[0].monitor
    tracker = ordered[0].tracker
    for result in ordered[1:]:
        monitor.merge_from(result.monitor)
        tracker.merge_from(result.tracker)
    stats = tracker.summary()
    totals = monitor.totals
    counters: Dict[str, int] = {}
    for result in ordered:
        for name, value in result.resilience_counters.items():
            counters[name] = counters.get(name, 0) + value
    # Membership counters are replicated global state (every shard applies
    # every join/leave), so shard 0's copy IS the global count.
    peers_departed = ordered[0].peers_departed
    resilience = resilience_snapshot(
        counters, tracker, spec.n_peers - peers_departed
    )
    resilience["faults_dropped"] = sum(result.faults_dropped for result in ordered)
    resilience["peers_joined"] = ordered[0].peers_joined
    resilience["peers_departed"] = peers_departed
    return {
        "scenario": spec.name,
        "seed": seed,
        "events_executed": sum(result.events_executed for result in ordered),
        "final_time": ordered[0].final_time,
        "latency_max": stats.maximum,
        "latency_mean": stats.mean,
        "latency_p50": stats.p50,
        "latency_p95": stats.p95,
        "total_bytes": totals.bytes,
        "total_messages": totals.messages,
        "by_kind_bytes": dict(sorted(totals.by_kind_bytes.items())),
        "dropped_messages": sum(result.dropped_messages for result in ordered),
        "blocks_via_recovery": sum(result.blocks_via_recovery for result in ordered),
        "resilience": resilience,
        # Rebuild the link section from the disjoint per-source records;
        # summarize_queue_accounting sums in sorted source order, so the
        # floats match the single-process section bit-for-bit.
        "link": dict(
            {"enabled": ordered[0].link_enabled},
            **summarize_queue_accounting(
                merge_queue_accounting(result.queue_accounting for result in ordered)
            ),
        ),
    }


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
    workload_end = config.blocks * config.block_period
    coordinator = WindowedCoordinator(
        transports,
        plan,
        workload_end=workload_end,
        deadline=workload_end + config.grace_period,
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
    if mode != "processes":
        raise ValueError(f"unknown sharded mode {mode!r}")
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
            _CheckedPipeTransport(parent, process, shard_id=shard_id, supervision=supervision)
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
            results, no parallelism), or ``"auto"`` (processes when the
            platform has fork or spawn, else inline).
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
            (:class:`~repro.simulation.sharded.SupervisionConfig`).
        health: a :class:`~repro.metrics.runhealth.RunHealth` to append
            to; one is created (and returned on the run) if omitted.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if seed is None:
        seed = spec.seeds[0]
    if shards is None:
        shards = spec.shards
    if health is None:
        health = RunHealth()
    supervision = supervision or SupervisionConfig()
    plan = plan_for(spec, shards, seed=seed, full=full)
    if plan.shards == 1:
        health.attempts += 1
        run = run_scenario(spec, seed=seed, full=full)
        return ShardedScenarioRun(
            spec=spec,
            seed=seed,
            plan=plan,
            mode="single",
            _snapshot=run.snapshot(),
            health=health,
        )
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
        health.attempts += 1
        health.record_degradation(
            f"sharded run failed {attempts} attempt(s) "
            f"({last_error.reason if last_error else 'unknown'}); "
            "re-executed single-process inline (shards -> 1)"
        )
        run = run_scenario(spec, seed=seed, full=full)
        return ShardedScenarioRun(
            spec=spec,
            seed=seed,
            plan=plan,
            mode="degraded",
            _snapshot=run.snapshot(),
            health=health,
        )
    raise last_error
