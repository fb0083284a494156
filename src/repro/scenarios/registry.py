"""Named scenario registry.

Every scenario the repo can run end-to-end is registered here by name:
the figure scenarios behind the paper's Figs. 4-14 (the experiment layer
consumes these instead of hand-wiring configs), and the WAN/fault
scenarios that go beyond the paper's single-datacenter testbed. New
scenarios are plain declarations — build a :class:`ScenarioSpec` and call
:func:`register` (see ``docs/scenarios.md``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.faults.schedule import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    EclipseEvent,
    FlakyLinkEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
)
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.net.latency import LatencySpec
from repro.net.link import CoDelConfig, LinkModel
from repro.scenarios.spec import LinkSpec, RegionTopology, ScenarioSpec, WorkloadSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its name; refuses silent overwrites."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    return spec


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def iter_scenarios() -> Iterator[ScenarioSpec]:
    for name in scenario_names():
        yield _REGISTRY[name]


# --------------------------------------------------------------------------
# Gossip factories (module-level, so specs stay picklable).
# --------------------------------------------------------------------------

def _gossip_leader_fanout_ablation() -> EnhancedGossipConfig:
    """Fig. 10 ablation: the leader pushes with fanout = fout."""
    gossip = EnhancedGossipConfig.paper_f4()
    gossip.leader_fanout = gossip.fout
    return gossip


def _gossip_no_digest_ablation() -> EnhancedGossipConfig:
    """Fig. 11 ablation: full blocks at every hop (no digests)."""
    gossip = EnhancedGossipConfig.paper_f4()
    gossip.use_digests = False
    return gossip


def _gossip_byzantine_hardened() -> EnhancedGossipConfig:
    """Enhanced gossip tuned for byzantine presence.

    Two deviations from the paper defaults: the leader initiates with
    ``leader_fanout = fout`` (delegating initiation to a single random
    peer is a single point of failure when that peer may be an
    adversary — one teasing initial gossiper strangles the whole
    epidemic), and the request-retry ladder is deepened so a stalled
    peer rotates through more digest holders before giving up.
    """
    gossip = EnhancedGossipConfig.paper_f4()
    gossip.leader_fanout = gossip.fout
    # Adversaries absorb epidemic energy (their full-block forwards are
    # dropped), so give the digest phase more rounds to cover everyone.
    gossip.ttl = 14
    gossip.request_retries = 4
    # Keep the whole ladder (0.3 + 0.45 + ... ~= 2.4 s) inside the
    # recovery component's period so a retry always beats the safety net.
    gossip.request_timeout = 0.3
    gossip.retry_backoff = 1.5
    return gossip


# --------------------------------------------------------------------------
# Figure scenarios: the paper's single-datacenter evaluation (§V-A).
# The experiment layer (figures/tables/scaling) consumes these.
# --------------------------------------------------------------------------

_FIGURE_WORKLOAD = WorkloadSpec(blocks=60, idle_tail=60.0)
_FIGURE_FULL_WORKLOAD = WorkloadSpec(blocks=1_000, idle_tail=500.0)

register(ScenarioSpec(
    name="fig-original",
    description="Figs. 4/5/6: original Fabric gossip, defaults (fout=3, pull 4 s)",
    gossip=OriginalGossipConfig,
    workload=_FIGURE_WORKLOAD,
    full_workload=_FIGURE_FULL_WORKLOAD,
))

register(ScenarioSpec(
    name="fig-enhanced-f4",
    description="Figs. 7/8/9: enhanced gossip, fout=4, TTL=9, TTLdirect=2",
    gossip=EnhancedGossipConfig.paper_f4,
    workload=_FIGURE_WORKLOAD,
    full_workload=_FIGURE_FULL_WORKLOAD,
))

register(ScenarioSpec(
    name="fig-enhanced-f2",
    description="Figs. 12/13/14: enhanced gossip, fout=2, TTL=19, TTLdirect=3",
    gossip=EnhancedGossipConfig.paper_f2,
    workload=_FIGURE_WORKLOAD,
    full_workload=_FIGURE_FULL_WORKLOAD,
))

register(ScenarioSpec(
    name="fig-leader-fanout-ablation",
    description="Fig. 10 ablation: leader pushes with fanout = fout = 4",
    gossip=_gossip_leader_fanout_ablation,
    workload=_FIGURE_WORKLOAD,
    full_workload=_FIGURE_FULL_WORKLOAD,
))

register(ScenarioSpec(
    name="fig-no-digest-ablation",
    description="Fig. 11 ablation: full blocks at every hop (~8 MB/s blow-up)",
    gossip=_gossip_no_digest_ablation,
    # The paper ran this only long enough to demonstrate the blow-up.
    workload=WorkloadSpec(blocks=60, idle_tail=20.0),
    full_workload=WorkloadSpec(blocks=100, idle_tail=20.0),
))

register(ScenarioSpec(
    name="scaling-template",
    description="Template for the organization-size sweep (per-size TTL applied)",
    gossip=EnhancedGossipConfig.paper_f4,
    workload=WorkloadSpec(blocks=10, idle_tail=0.0),
))

# --------------------------------------------------------------------------
# Golden determinism scenarios: the exact runs whose metric snapshots are
# committed in src/repro/perf/golden_metrics.json and replayed bit-for-bit
# by the determinism gate — single-process AND sharded (--shards 2/4).
# Registering them makes every golden reachable by name from sweep workers
# and shard workers alike; repro.perf.regression maps golden keys here.
# --------------------------------------------------------------------------

register(ScenarioSpec(
    name="golden-enhanced-50",
    description="Determinism golden: enhanced f4, 50 peers, 6 blocks, no background",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=50,
    workload=WorkloadSpec(blocks=6, idle_tail=0.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="golden-enhanced-50-bg",
    description="Determinism golden: enhanced f4, 50 peers, aggregated background",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=50,
    background=True,
    workload=WorkloadSpec(blocks=6, idle_tail=0.0),
))

register(ScenarioSpec(
    name="golden-original-30",
    description="Determinism golden: original module, 30 peers, 4 blocks",
    gossip=OriginalGossipConfig,
    n_peers=30,
    workload=WorkloadSpec(blocks=4, idle_tail=0.0),
))

register(ScenarioSpec(
    name="golden-recovery-crash",
    description="Determinism golden: 5 of 50 peers crash t=2..6 s, recovery catch-up",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=50,
    background=True,
    faults=(CrashEvent(at=2.0, recover_at=6.0, regular_slice=(0, 5)),),
    workload=WorkloadSpec(blocks=6, idle_tail=0.0, grace_period=120.0),
))

# --------------------------------------------------------------------------
# Congestion scenarios: bottleneck-link physics (finite sender bandwidth,
# bounded queue, CoDel AQM). Blocks are large enough that serialization
# delay dominates propagation, so these exercise the queueing model the
# determinism goldens pin: nonzero queue residency and (under pressure)
# tail/CoDel drops, replayed bit-for-bit at any shard count.
# --------------------------------------------------------------------------

register(ScenarioSpec(
    name="congested-uplink",
    description="40 peers behind 3 MB/s uplinks; ~480 KB blocks queue at the sender",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=40,
    link=LinkModel(
        bandwidth=3_000_000.0,
        queue_bytes=600_000.0,
        codel=CoDelConfig(),
    ),
    workload=WorkloadSpec(
        blocks=5,
        block_period=1.5,
        tx_per_block=100,
        tx_size=4_800,
        idle_tail=20.0,
        grace_period=120.0,
    ),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="fat-block-storm",
    description="30 peers on measured WAN RTTs; fat blocks every 0.8 s saturate 6 MB/s links",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=30,
    organizations=4,
    latency=LatencySpec.of(
        "measured",
        locations=("Virginia", "Ireland", "Tokyo", "Sydney"),
    ),
    placement=(
        ("org0", "Virginia"),
        ("org1", "Ireland"),
        ("org2", "Tokyo"),
        ("org3", "Sydney"),
    ),
    link=LinkModel(
        bandwidth=6_000_000.0,
        queue_bytes=1_500_000.0,
        codel=CoDelConfig(),
    ),
    workload=WorkloadSpec(
        blocks=4,
        block_period=0.8,
        tx_per_block=100,
        tx_size=4_800,
        idle_tail=30.0,
        grace_period=120.0,
    ),
    seeds=(1, 2),
))

# --------------------------------------------------------------------------
# WAN / fault scenarios: deployments the paper's testbed could not express.
# --------------------------------------------------------------------------

_WAN_3_REGION = RegionTopology(
    regions=("eu-west", "us-east", "ap-south"),
    links=(
        ("eu-west", "us-east", LinkSpec(0.042, 0.004)),
        ("eu-west", "ap-south", LinkSpec(0.110, 0.008)),
        ("us-east", "ap-south", LinkSpec(0.090, 0.006)),
    ),
)

register(ScenarioSpec(
    name="wan-3-region",
    description="3 orgs in 3 regions (EU/US/AP); WAN orderer + state-info hops",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=24,
    organizations=3,
    topology=_WAN_3_REGION,
    background=True,
    workload=WorkloadSpec(blocks=4, idle_tail=5.0),
    seeds=(1, 2, 3),
))

register(ScenarioSpec(
    name="partition-heal",
    description="5 of 20 peers isolated t=2..8 s; recovery catches them up after heal",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=20,
    faults=(
        PartitionEvent(
            at=2.0,
            heal_at=8.0,
            islands=(("peer-15", "peer-16", "peer-17", "peer-18", "peer-19"),),
        ),
    ),
    workload=WorkloadSpec(blocks=6, idle_tail=5.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="churn-flux",
    description="Two overlapping crash/recover waves (5 peers each) under load",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=30,
    background=True,
    faults=(
        CrashEvent(at=2.0, recover_at=6.0, regular_slice=(19, 24)),
        CrashEvent(at=5.0, recover_at=9.0, regular_slice=(24, 29)),
    ),
    workload=WorkloadSpec(blocks=6, idle_tail=5.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="degraded-links",
    description="2-region WAN; 25% loss on inter-region links t=1..8 s",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=16,
    organizations=2,
    topology=RegionTopology(
        regions=("east", "west"),
        links=(("east", "west", LinkSpec(0.038, 0.004)),),
    ),
    background=True,
    faults=(DegradeEvent(at=1.0, restore_at=8.0, loss_rate=0.25),),
    workload=WorkloadSpec(blocks=5, idle_tail=5.0),
    seeds=(1, 2),
))

# --------------------------------------------------------------------------
# Adversarial / churn scenarios: the byzantine arsenal (§VII and beyond)
# and runtime membership churn. All of them replay bit-for-bit at any
# shard count — every injector draws from per-source RNG streams.
# --------------------------------------------------------------------------

register(ScenarioSpec(
    name="byzantine-teasers",
    description="250 peers, 20% teasing (advertise, never serve); retries rescue stalls",
    gossip=_gossip_byzantine_hardened,
    n_peers=250,
    faults=(AdversaryEvent(kind="teasing", regular_slice=(199, 249)),),
    workload=WorkloadSpec(blocks=4, idle_tail=0.0, grace_period=90.0),
    seeds=(1, 2, 3),
))

register(ScenarioSpec(
    name="lazy-forwarders",
    description="40 peers, 20 shirk half their forwarding work (drop_prob=0.5)",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=40,
    faults=(AdversaryEvent(kind="lazy", regular_slice=(19, 39), drop_prob=0.5),),
    workload=WorkloadSpec(blocks=5, idle_tail=0.0, grace_period=90.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="digest-liars",
    description="40 peers, 8 re-advertise digests for blocks they never serve",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=40,
    faults=(AdversaryEvent(kind="digest-liar", regular_slice=(31, 39)),),
    workload=WorkloadSpec(blocks=5, idle_tail=0.0, grace_period=120.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="eclipse-attempt",
    description="3 teasing attackers monopolize peer-16's view t=0.5..6 s",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=20,
    faults=(
        AdversaryEvent(kind="teasing", peers=("peer-17", "peer-18", "peer-19")),
        EclipseEvent(
            victim="peer-16",
            at=0.5,
            release_at=6.0,
            attackers=("peer-17", "peer-18", "peer-19"),
        ),
    ),
    workload=WorkloadSpec(blocks=5, idle_tail=5.0, grace_period=120.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="flash-crowd",
    description="5 of 30 peers held out, join as a flash crowd at t=3 s",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=30,
    faults=(JoinEvent(at=3.0, regular_slice=(24, 29)),),
    workload=WorkloadSpec(blocks=6, idle_tail=5.0, grace_period=120.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="mass-departure",
    description="10 of 30 peers leave the membership for good at t=4 s",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=30,
    faults=(LeaveEvent(at=4.0, regular_slice=(19, 29)),),
    workload=WorkloadSpec(blocks=6, idle_tail=5.0),
    seeds=(1, 2),
))

register(ScenarioSpec(
    name="flaky-links",
    description="2-region WAN; 30% one-way loss east->west t=1..8 s (asymmetric)",
    gossip=EnhancedGossipConfig.paper_f4,
    n_peers=16,
    organizations=2,
    topology=RegionTopology(
        regions=("east", "west"),
        links=(("east", "west", LinkSpec(0.038, 0.004)),),
    ),
    background=True,
    faults=(
        FlakyLinkEvent(
            at=1.0, restore_at=8.0, loss_rate=0.3, direction=("east", "west")
        ),
    ),
    workload=WorkloadSpec(blocks=5, idle_tail=5.0, grace_period=120.0),
    seeds=(1, 2),
))
