"""Run declarative scenarios end to end.

The runner is a thin bridge from a :class:`~repro.scenarios.spec.
ScenarioSpec` to the experiment layer: it materializes a
:class:`~repro.experiments.dissemination.DisseminationConfig` (the single
runner every experiment already uses), compiles the spec's fault events
onto the freshly built network, drives the run, and snapshots comparable
metrics — the same snapshot shape the perf layer's determinism goldens
pin, so any registered scenario can be promoted to a golden by adding one
line in :mod:`repro.perf.regression`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.experiments.dissemination import (
    DisseminationConfig,
    DisseminationResult,
    run_dissemination,
)
from repro.faults.schedule import FaultSchedule, compile_fault_schedule
from repro.gossip.config import BackgroundTrafficConfig
from repro.gossip.messages import PushDigest
from repro.gossip.push_infect_contagion import ignored_digests
from repro.metrics.latency import DisseminationTracker
from repro.metrics.resilience import peer_resilience_counters, resilience_snapshot
from repro.net.link import merge_queue_accounting, summarize_queue_accounting
from repro.net.network import NetworkConfig
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation._core.monitor import TrafficMonitor


def dissemination_config(
    spec: ScenarioSpec,
    seed: int = 1,
    full: bool = False,
    with_background: Optional[bool] = None,
) -> DisseminationConfig:
    """The :class:`DisseminationConfig` a spec resolves to for one seed.

    ``full`` selects the spec's paper-scale workload when it has one;
    ``with_background`` overrides the spec's background default (the
    bandwidth figures force it on, the latency figures off).
    """
    workload = spec.full_workload if (full and spec.full_workload is not None) else spec.workload
    enable_background = spec.background if with_background is None else with_background
    network: Optional[NetworkConfig] = None
    if spec.topology is not None:
        network = NetworkConfig(latency=spec.topology.latency_spec(), link=spec.link)
    elif spec.latency is not None or spec.link is not None:
        network = NetworkConfig(latency=spec.latency, link=spec.link)
    return DisseminationConfig(
        gossip=spec.gossip(),
        n_peers=spec.n_peers,
        blocks=workload.blocks,
        block_period=workload.block_period,
        tx_per_block=workload.tx_per_block,
        tx_size=workload.tx_size,
        seed=seed,
        idle_tail=workload.idle_tail,
        grace_period=workload.grace_period,
        background=BackgroundTrafficConfig() if enable_background else None,
        network=network,
        per_tx_validation_time=spec.per_tx_validation_time,
        organizations=spec.organizations,
        org_regions=spec.org_regions(),
        orderer_region=(
            (spec.topology.orderer_region or spec.topology.regions[0])
            if spec.topology
            else None
        ),
    )


def arm(spec: ScenarioSpec, net) -> FaultSchedule:
    """Compile ``spec``'s fault events onto the freshly built ``net``.

    A spec that declares none (no fault schedule, churn or adversary)
    disconnects no node and rewires no route for the whole run, so its
    network elides the push digests their receivers would ignore
    (:meth:`~repro.net.network.Network.elide`, docs/networking.md,
    "Delivery")."""
    if not spec.faults:
        net.network.elide(PushDigest, ignored_digests)
    return compile_fault_schedule(spec.faults, net)


def resolve(
    scenario: Union[str, ScenarioSpec], seed: Optional[int] = None
) -> Tuple[ScenarioSpec, int]:
    """The spec a name or spec stands for, and the seed a run of it uses
    (the spec's first when none is asked for)."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    return spec, spec.seeds[0] if seed is None else seed


@dataclass
class ShardResult:
    """What one process contributes to a run's snapshot (picklable).

    A single-process run has one, covering every peer; a sharded run has
    one per shard, covering the peers that shard executed.
    """

    shard_id: int
    events_executed: int
    final_time: float
    monitor: TrafficMonitor
    tracker: DisseminationTracker
    dropped_messages: int
    blocks_via_recovery: int
    # Hardening counters summed over this process's peers, plus its
    # injectors' drop count — each recorded in exactly one process, so the
    # merge sums them. Membership counts (joined, departed, still expected)
    # are replicated: every shard counts every join and leave of the whole
    # membership, so the merge takes them from one result.
    resilience_counters: Dict[str, int] = field(default_factory=dict)
    faults_dropped: int = 0
    peers_joined: int = 0
    peers_departed: int = 0
    peers_expected: int = 0
    # Bottleneck-link queue accounting of this process's sources (every
    # source is executed by exactly one), merged into the ``link`` section.
    link_enabled: bool = False
    queue_accounting: Dict[str, list] = field(default_factory=dict)


def collect_result(net, schedule: FaultSchedule, shard_id: int = 0) -> ShardResult:
    """The :class:`ShardResult` of the process that executed the peers of
    ``net`` under the compiled ``schedule``."""
    peers = net.peers.values()
    return ShardResult(
        shard_id=shard_id,
        events_executed=net.sim.events_executed,
        final_time=net.sim.now,
        monitor=net.network.monitor,
        tracker=net.tracker,
        dropped_messages=net.network.dropped_messages,
        blocks_via_recovery=sum(
            peer.blocks_received_via.get("recovery", 0) for peer in peers
        ),
        resilience_counters=peer_resilience_counters(peers),
        faults_dropped=schedule.dropped_messages,
        peers_joined=schedule.peers_joined,
        peers_departed=schedule.peers_departed,
        # The infection curves' denominator: a curve that waited for peers
        # that left for good would never close.
        peers_expected=net.n_peers - schedule.peers_departed,
        link_enabled=net.network._link is not None,
        queue_accounting=net.network.queue_accounting(),
    )


def merge_shard_results(
    spec: ScenarioSpec, seed: int, results: Sequence[ShardResult]
) -> dict:
    """The comparable, JSON-stable snapshot of one run, from the results
    of every process that executed a part of it.

    The shape matches the perf layer's golden snapshots (event count,
    horizon, latency statistics as exact floats, per-kind byte totals)
    plus the fault accounting, so sweep merges and golden replays share
    one vocabulary. Every physics metric is the same at any shard count;
    ``events_executed`` is the sum of the per-shard engine counters, which
    legitimately differs (exact-tie delivery grouping and digest elision
    are shard-local — see docs/sharding.md). ``results`` is only read: merging the same
    results again returns the same snapshot.
    """
    ordered = sorted(results, key=lambda result: result.shard_id)
    first = ordered[0]
    final_times = {result.final_time for result in ordered}
    if len(final_times) != 1:
        # Deferred: the sharded module imports this one.
        from repro.scenarios.sharded import ShardWorkerError

        raise ShardWorkerError(f"shards ended at different times: {sorted(final_times)}")
    monitor, tracker = first.monitor, first.tracker
    if len(ordered) > 1:
        # Fresh accumulators, so that no result is written to. (One result
        # is its own merge; copying it would only cost a 1,000-peer run
        # 1.4 MB of peak RSS.)
        monitor = TrafficMonitor(bin_width=monitor.bin_width)
        tracker = DisseminationTracker()
        for result in ordered:
            monitor.merge_from(result.monitor)
            tracker.merge_from(result.tracker)
    counters: Dict[str, int] = {}
    for result in ordered:
        for name, value in result.resilience_counters.items():
            counters[name] = counters.get(name, 0) + value
    stats = tracker.summary()
    totals = monitor.totals
    resilience = resilience_snapshot(counters, tracker, first.peers_expected)
    resilience["faults_dropped"] = sum(result.faults_dropped for result in ordered)
    resilience["peers_joined"] = first.peers_joined
    resilience["peers_departed"] = first.peers_departed
    return {
        "scenario": spec.name,
        "seed": seed,
        "events_executed": sum(result.events_executed for result in ordered),
        "final_time": first.final_time,
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
        # Bottleneck-link queue accounting (all-zero with the link model
        # disabled), from the disjoint per-source records;
        # summarize_queue_accounting sums in sorted source order, so the
        # floats are the same at any shard count.
        "link": dict(
            {"enabled": first.link_enabled},
            **summarize_queue_accounting(
                merge_queue_accounting(result.queue_accounting for result in ordered)
            ),
        ),
    }


@dataclass
class ScenarioRun:
    """Outcome of one scenario run for one seed."""

    spec: ScenarioSpec
    seed: int
    result: DisseminationResult
    faults: FaultSchedule

    def snapshot(self) -> dict:
        """This run's snapshot (:func:`merge_shard_results` of the one
        process that executed all of it)."""
        return merge_shard_results(
            self.spec, self.seed, [collect_result(self.result.net, self.faults)]
        )


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    full: bool = False,
) -> ScenarioRun:
    """Build, fault-arm and drive one scenario run for one seed."""
    spec, seed = resolve(scenario, seed)
    config = dissemination_config(spec, seed=seed, full=full)
    compiled: list = []  # box: prepare runs inside run_dissemination

    def prepare(net) -> None:
        compiled.append(arm(spec, net))

    result = run_dissemination(config, prepare=prepare)
    return ScenarioRun(spec=spec, seed=seed, result=result, faults=compiled[0])
