"""Tiny twins of the benchmark workloads for the fast tests.

Same specs, same runners and reports as ``bench.workloads``; only peer and
block counts shrink, so every code path of the benchmark runs in well under
a second. ``tiny-starved`` cannot finish: its grace period ends before the
last block can reach anyone. ``small-wan`` is big enough (about half a
second) for the sampler to draw a hundred samples.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments import ConflictExperimentConfig, run_conflict_experiment
from repro.gossip import EnhancedGossipConfig, OriginalGossipConfig
from repro.scenarios import WorkloadSpec

from bench import rep
from bench.workloads import (
    CONGESTED_WAN_600,
    ENH_LAN_1K,
    SHARD2_ENH_2K,
    Runner,
    Workload,
    report_table2,
    scenario_workload,
)

PEERS = 40


def enhanced_tiny() -> EnhancedGossipConfig:
    return EnhancedGossipConfig(fout=4, ttl=8, ttl_direct=2)


def tiny_table2(seed: int):
    return run_conflict_experiment(
        ConflictExperimentConfig.scaled(
            gossip=OriginalGossipConfig(), n_peers=20, keys=5, increments_per_key=4, seed=seed
        )
    )


def _tiny(spec, name: str, **changes):
    return replace(spec, name=name, n_peers=PEERS, gossip=enhanced_tiny, **changes)


WORKLOADS = {
    workload.name: workload
    for workload in (
        scenario_workload(
            _tiny(ENH_LAN_1K, "tiny-enh", workload=replace(ENH_LAN_1K.workload, blocks=3)),
            "tiny twin of enh-lan-1k",
        ),
        Workload("tiny-table2", "tiny twin of table2-orig-100", 200,
                 Runner(tiny_table2, report_table2)),
        scenario_workload(
            _tiny(CONGESTED_WAN_600, "tiny-wan",
                  workload=replace(CONGESTED_WAN_600.workload, blocks=3)),
            "tiny twin of congested-wan-600",
        ),
        scenario_workload(
            replace(CONGESTED_WAN_600, name="small-wan", n_peers=200,
                    workload=replace(CONGESTED_WAN_600.workload, blocks=6)),
            "small twin of congested-wan-600",
        ),
        scenario_workload(_tiny(SHARD2_ENH_2K, "tiny-shard2"), "tiny twin of shard2-enh-2k"),
        scenario_workload(
            _tiny(ENH_LAN_1K, "tiny-starved",
                  workload=WorkloadSpec(blocks=3, idle_tail=0.0, grace_period=0.001)),
            "cannot finish: no time for the last block to spread",
        ),
    )
}


def tiny_rep(name: str, seed: int = 1, trace: bool = False) -> dict:
    """One in-process repetition of a workload of this registry."""
    return rep.run_rep(lambda: WORKLOADS[name], "measured", seed, time.perf_counter(), trace)
