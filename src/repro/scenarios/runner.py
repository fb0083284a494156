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

from dataclasses import dataclass
from typing import Optional, Union

from repro.experiments.dissemination import (
    DisseminationConfig,
    DisseminationResult,
    run_dissemination,
)
from repro.faults.schedule import FaultSchedule, compile_fault_schedule
from repro.gossip.config import BackgroundTrafficConfig
from repro.metrics.resilience import peer_resilience_counters, resilience_snapshot
from repro.net.network import NetworkConfig
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec


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
        background=BackgroundTrafficConfig(enabled=True) if enable_background else None,
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


@dataclass
class ScenarioRun:
    """Outcome of one scenario run for one seed."""

    spec: ScenarioSpec
    seed: int
    result: DisseminationResult
    faults: FaultSchedule

    def snapshot(self) -> dict:
        """Comparable, JSON-stable metrics of this run.

        The shape matches the perf layer's golden snapshots (event count,
        horizon, latency statistics as exact floats, per-kind byte
        totals) plus the fault accounting, so sweep merges and golden
        replays share one vocabulary.
        """
        net = self.result.net
        stats = self.result.latency_summary()
        totals = net.network.monitor.totals
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "events_executed": net.sim.events_executed,
            "final_time": net.sim.now,
            "latency_max": stats.maximum,
            "latency_mean": stats.mean,
            "latency_p50": stats.p50,
            "latency_p95": stats.p95,
            "total_bytes": totals.bytes,
            "total_messages": totals.messages,
            "by_kind_bytes": dict(sorted(totals.by_kind_bytes.items())),
            "dropped_messages": net.network.dropped_messages,
            "blocks_via_recovery": self.result.recovery_usage(),
            "resilience": self.resilience(),
            # Bottleneck-link queue accounting (all-zero with the link
            # model disabled); sharded runs rebuild the identical section
            # from merged per-source records (see merge_shard_results).
            "link": net.network.link_summary(),
        }

    def resilience(self) -> dict:
        """Hardening counters, infection curves and churn accounting.

        Counters sum over every peer (a departed peer's pre-departure
        activity happened); the infection-curve denominator excludes
        departed peers — a curve that waits for peers that left for good
        would never close.
        """
        net = self.result.net
        expected = sum(1 for peer in net.peers.values() if not peer.departed)
        report = resilience_snapshot(
            peer_resilience_counters(net.peers.values()), net.tracker, expected
        )
        report["faults_dropped"] = self.faults.dropped_messages
        report["peers_joined"] = self.faults.peers_joined
        report["peers_departed"] = self.faults.peers_departed
        return report


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    full: bool = False,
) -> ScenarioRun:
    """Build, fault-arm and drive one scenario run for one seed."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if seed is None:
        seed = spec.seeds[0]
    config = dissemination_config(spec, seed=seed, full=full)
    compiled: list = []  # box: prepare runs inside run_dissemination

    def prepare(net) -> None:
        compiled.append(compile_fault_schedule(spec.faults, net))

    result = run_dissemination(config, prepare=prepare if spec.faults else None)
    schedule = compiled[0] if compiled else FaultSchedule()
    return ScenarioRun(spec=spec, seed=seed, result=result, faults=schedule)


def scenario_snapshot(name: str, seed: int = 1) -> dict:
    """Run a registered scenario and return its golden-comparable metrics.

    This is the hook the perf determinism gate uses; the ``scenario`` and
    ``seed`` keys are part of the snapshot, so a golden also pins which
    declaration produced it.
    """
    return run_scenario(name, seed=seed).snapshot()
