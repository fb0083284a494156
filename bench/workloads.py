"""The five benchmark workloads, spelled out in full.

Every spec is written here through package-level exports only (see
README.md, "Pinned API surface") and never looked up from the scenario
registry, so a refactor that moves files or retunes a registered scenario
cannot change what the benchmark runs. Gossip factories are module-level
functions so the specs pickle.

A ``Workload`` carries the ``why`` recorded in ``BENCHMARK.json`` and one
``Runner`` per way of executing it. A runner is split in two so the
benchmark can time them apart: ``run(seed)`` drives the simulator the way
users do and ``report(result)`` turns what it returned into an ``Outcome``
(the physics snapshot plus the delivery accounting the checks need).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import ttl_for_target
from repro.experiments import ConflictExperimentConfig, run_conflict_experiment
from repro.faults import CrashEvent, FlakyLinkEvent
from repro.gossip import EnhancedGossipConfig, OriginalGossipConfig
from repro.net import CoDelConfig, LatencySpec, LinkModel
from repro.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
    run_scenario_sharded,
)

PE_TARGET = 1e-6
FOUT = 4


def _enhanced(n_peers: int) -> EnhancedGossipConfig:
    return EnhancedGossipConfig(
        fout=FOUT, ttl=ttl_for_target(n_peers, FOUT, PE_TARGET), ttl_direct=2
    )


def enhanced_600() -> EnhancedGossipConfig:
    return _enhanced(600)


def enhanced_1k() -> EnhancedGossipConfig:
    return _enhanced(1000)


def enhanced_2k() -> EnhancedGossipConfig:
    return _enhanced(2000)


def enhanced_3k() -> EnhancedGossipConfig:
    return _enhanced(3000)


ENH_LAN_1K = ScenarioSpec(
    name="enh-lan-1k",
    description="1000 peers, one org, enhanced gossip, background on, 6 blocks",
    gossip=enhanced_1k,
    n_peers=1000,
    background=True,
    workload=WorkloadSpec(blocks=6, block_period=1.5, idle_tail=0.0, grace_period=60.0),
)

WIDE_BUILD_3K = ScenarioSpec(
    name="wide-build-3k",
    description="3000 peers, one org, enhanced gossip, background off, 1 block",
    gossip=enhanced_3k,
    n_peers=3000,
    background=False,
    workload=WorkloadSpec(blocks=1, block_period=1.5, idle_tail=0.0, grace_period=60.0),
)

CONGESTED_WAN_600 = ScenarioSpec(
    name="congested-wan-600",
    description="600 peers in 4 orgs on measured RTTs behind 6 MB/s CoDel links, crash + flaky link",
    gossip=enhanced_600,
    n_peers=600,
    organizations=4,
    latency=LatencySpec.of(
        "measured", locations=("Virginia", "Ireland", "Tokyo", "Sydney")
    ),
    placement=(
        ("org0", "Virginia"),
        ("org1", "Ireland"),
        ("org2", "Tokyo"),
        ("org3", "Sydney"),
    ),
    link=LinkModel(bandwidth=6_000_000.0, queue_bytes=1_500_000.0, codel=CoDelConfig()),
    faults=(
        CrashEvent(at=1.0, recover_at=4.0, regular_slice=(0, 30)),
        FlakyLinkEvent(
            at=0.5, restore_at=5.0, loss_rate=0.2, direction=("Virginia", "Tokyo")
        ),
    ),
    workload=WorkloadSpec(
        blocks=12,
        block_period=0.8,
        tx_per_block=100,
        tx_size=4_800,
        idle_tail=10.0,
        grace_period=120.0,
    ),
)

SHARD2_ENH_2K = ScenarioSpec(
    name="shard2-enh-2k",
    description="2000 peers, enhanced gossip, background on, 3 blocks, 2 shards",
    gossip=enhanced_2k,
    n_peers=2000,
    background=True,
    workload=WorkloadSpec(blocks=3, block_period=1.5, idle_tail=0.0, grace_period=60.0),
    shards=2,
)


def table2_config(seed: int) -> ConflictExperimentConfig:
    """The paper's Table II cell: original gossip, 2 s blocks, 2000 tx."""
    return ConflictExperimentConfig.scaled(
        gossip=OriginalGossipConfig(),
        block_period=2.0,
        increments_per_key=100,
        seed=seed,
    )


@dataclass
class Outcome:
    """What one run produced.

    ``attempted`` is the number of expected block deliveries (blocks cut x
    live peers) and ``failed`` how many were missing at the end of the run.
    ``problems`` lists failed checks; ``health`` is the RunHealth of a
    sharded run.
    """

    snapshot: dict
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    health: Optional[object] = None


def _delivery_counts(net, blocks: int) -> Tuple[int, int]:
    live = [peer for peer in net.peers.values() if not peer.departed]
    missing = sum(len(peer.blockchain.missing_ranges(blocks)) for peer in live)
    return blocks * len(live), missing


def report_scenario(run) -> Outcome:
    """Outcome of a single-process ``run_scenario`` result."""
    net = run.result.net
    attempted, failed = _delivery_counts(net, run.spec.workload.blocks)
    return Outcome(run.snapshot(), attempted, failed)


def report_sharded(run) -> Outcome:
    """Outcome of a ``run_scenario_sharded`` result.

    No process holds every peer, so delivery accounting comes from the
    merged snapshot and is conservative: a block that missed any peer
    counts all of its deliveries as failed.
    """
    snapshot = run.snapshot()
    blocks = run.spec.workload.blocks
    reached = snapshot["resilience"]["infection"]["1"]["blocks_reached"]
    problems = []
    if run.mode not in ("processes", "inline"):
        problems.append(f"sharded run fell back to mode {run.mode!r}")
    return Outcome(
        snapshot,
        blocks * run.spec.n_peers,
        (blocks - reached) * run.spec.n_peers,
        problems,
        health=run.health,
    )


def report_table2(result) -> Outcome:
    """Outcome of a ``run_conflict_experiment`` result; the snapshot is
    assembled here because the conflict experiment has none of its own."""
    net = result.net
    attempted, failed = _delivery_counts(net, result.blocks)
    problems = []
    if result.invalidated != result.invalidated_by_ledger:
        problems.append(
            f"invalidated {result.invalidated} != by-ledger {result.invalidated_by_ledger}"
        )
    totals = net.network.monitor.totals
    stats = net.tracker.summary()
    snapshot = {
        "scenario": "table2-orig-100",
        "seed": result.config.seed,
        "events_executed": net.sim.events_executed,
        "final_time": net.sim.now,
        "latency_p50": stats.p50,
        "latency_p95": stats.p95,
        "total_bytes": totals.bytes,
        "total_messages": totals.messages,
        "dropped_messages": net.network.dropped_messages,
        "blocks": result.blocks,
        "tx_ordered": result.tx_ordered,
        "invalidated": result.invalidated,
        "proposal_conflicts": result.proposal_conflicts,
        "final_counters": dict(sorted(result.final_counters.items())),
    }
    return Outcome(snapshot, attempted, failed, problems)


@dataclass(frozen=True)
class Runner:
    run: Callable[[int], object]
    report: Callable[[object], Outcome]


def scenario_runner(spec: ScenarioSpec) -> Runner:
    return Runner(lambda seed: run_scenario(spec, seed=seed), report_scenario)


def sharded_runner(spec: ScenarioSpec, mode: str) -> Runner:
    return Runner(
        lambda seed: run_scenario_sharded(spec, seed=seed, shards=spec.shards, mode=mode),
        report_sharded,
    )


@dataclass(frozen=True)
class Workload:
    """``deliveries`` is the nominal operation count, charged as failed when
    a run raises before it can count. A sharded workload has two more
    runners: ``oracle``, the unsharded run whose physics the measured run
    must reproduce, and ``parallel``, the same shards as worker processes
    (timed beside the measured run by the traced pass; see README.md for
    why it is not the measured one)."""

    name: str
    why: str
    deliveries: int
    measured: Runner
    oracle: Optional[Runner] = None
    parallel: Optional[Runner] = None

    def runner(self, variant: str) -> Runner:
        return getattr(self, variant)


def scenario_workload(spec: ScenarioSpec, why: str) -> Workload:
    deliveries = spec.workload.blocks * spec.n_peers
    if spec.shards == 1:
        return Workload(spec.name, why, deliveries, scenario_runner(spec))
    return Workload(
        spec.name,
        why,
        deliveries,
        measured=sharded_runner(spec, "inline"),
        oracle=scenario_runner(spec),
        parallel=sharded_runner(spec, "processes"),
    )


# Table II: 2000 transactions at 5 tx/s and a block every 2 s is 200 blocks,
# each to 100 peers.
TABLE2_DELIVERIES = 200 * 100

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        scenario_workload(
            ENH_LAN_1K,
            "loop-bound: multicast fast path, digest handlers, aggregated background, O(n) exclude-sampling at 1000 peers",
        ),
        Workload(
            "table2-orig-100",
            "the paper's Table II cell: 2000 tx through client, endorser, orderer, FULL validation; unicast-heavy, ledger+fabric ~45%, n=100",
            TABLE2_DELIVERIES,
            Runner(lambda seed: run_conflict_experiment(table2_config(seed)), report_table2),
        ),
        scenario_workload(
            WIDE_BUILD_3K,
            "build-bound: build_network is over half of wall and RSS is quadratic in peers (the O(n^2) views)",
        ),
        scenario_workload(
            CONGESTED_WAN_600,
            "off the fast path: guarded multicast, CoDel link queues, topology samplers, drop filter, retry ladder, recovery",
        ),
        scenario_workload(
            SHARD2_ENH_2K,
            "the only run through the sharded runner: one replicated build per shard, ~420 window barriers, cross-shard records, merge",
        ),
    )
}
