"""Experiment harness: the paper's evaluation, end to end.

* :mod:`repro.experiments.builders` assembles a complete simulated Fabric
  network (orderer, peers, gossip modules, background traffic, trackers).
* :mod:`repro.experiments.workloads` generates the paper's workloads.
* :mod:`repro.experiments.dissemination` runs the latency/bandwidth
  experiments behind Figs. 4-14.
* :mod:`repro.experiments.conflicts` runs the Table II consistency
  experiment.
* :mod:`repro.experiments.figures` / :mod:`repro.experiments.tables`
  produce the exact series/rows of each figure and table.
"""

from repro.experiments.builders import FabricNetwork, GossipChoice, build_network
from repro.experiments.conflicts import ConflictExperimentConfig, ConflictResult, run_conflict_experiment
from repro.experiments.dissemination import (
    DisseminationConfig,
    DisseminationResult,
    run_dissemination,
)
from repro.experiments.workloads import (
    CounterIncrementWorkload,
    synthetic_block_transactions,
)

__all__ = [
    "ConflictExperimentConfig",
    "ConflictResult",
    "CounterIncrementWorkload",
    "DisseminationConfig",
    "DisseminationResult",
    "FabricNetwork",
    "GossipChoice",
    "build_network",
    "run_conflict_experiment",
    "run_dissemination",
    "synthetic_block_transactions",
]
