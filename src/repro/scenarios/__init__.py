"""Declarative scenarios: one spec, consumed by every layer.

The paper's evaluation ran on a single-datacenter testbed; this package
turns "a scenario" into a first-class object so the repo can express the
deployments Fabric actually runs in — multi-region organizations over WAN
links, partitions, churn, degraded links — and sweep them over seed
matrices in parallel:

* :mod:`repro.scenarios.spec` — frozen :class:`ScenarioSpec` (topology,
  placement, gossip choice, workload, background, fault schedule, seeds);
* :mod:`repro.scenarios.registry` — named registry with the figure
  scenarios and the WAN/fault scenarios built in;
* :mod:`repro.scenarios.runner` — spec → network build (region-aware
  latency), fault compilation, deterministic run, metric snapshot;
* :mod:`repro.scenarios.sweep` — :class:`SweepRunner`: scenario × seed
  fan-out over worker processes with a byte-deterministic merge;
* :mod:`repro.scenarios.sharded` — one scenario run partitioned across
  shard worker processes under a conservative window protocol, merged
  bit-for-bit (docs/sharding.md).
"""

from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.sharded import (
    ShardedScenarioRun,
    run_scenario_sharded,
)
from repro.scenarios.runner import (
    ScenarioRun,
    dissemination_config,
    run_scenario,
)
from repro.scenarios.spec import (
    LinkSpec,
    RegionTopology,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.sweep import SweepReport, SweepRunner, merge_runs

__all__ = [
    "LinkSpec",
    "RegionTopology",
    "ScenarioRun",
    "ScenarioSpec",
    "ShardedScenarioRun",
    "SweepReport",
    "SweepRunner",
    "WorkloadSpec",
    "dissemination_config",
    "get_scenario",
    "iter_scenarios",
    "merge_runs",
    "register",
    "run_scenario",
    "run_scenario_sharded",
    "scenario_names",
]
