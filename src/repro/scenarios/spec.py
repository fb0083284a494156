"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, pure-Python description of one
deployment + workload + fault story: how many peers in how many
organizations, placed in which regions of which WAN topology, running
which gossip module, under what background traffic, block workload and
fault schedule, evaluated over which seeds. Every layer consumes the same
object — the experiment runner builds the network from it, the fault
compiler arms its events, the sweep runner fans its seed matrix out over
worker processes, and the perf layer replays registered scenarios as
determinism goldens.

Specs are data, not code: hashable, picklable (the gossip field is a
module-level factory, not a config instance — gossip configs are mutable)
and cheap to derive variants from with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple, Union

from repro.checks import require_finite
from repro.faults.schedule import FaultEvent
from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig
from repro.net.latency import LanLatency, LatencyModel, LatencySpec, TopologyLatency
from repro.net.link import LinkModel

GossipChoice = Union[OriginalGossipConfig, EnhancedGossipConfig]
GossipFactory = Callable[[], GossipChoice]

# LAN defaults, derived from LanLatency's calibration against the paper's
# testbed (~12 ms base covering propagation + per-message software cost,
# plus a small lognormal jitter tail) so a recalibration of the LAN model
# automatically flows into every topology's intra-region links.
_LAN_DEFAULTS = LanLatency()
LAN_BASE = _LAN_DEFAULTS.base
LAN_JITTER_MEDIAN = _LAN_DEFAULTS.jitter_median
LAN_JITTER_SIGMA = _LAN_DEFAULTS.jitter_sigma


@dataclass(frozen=True)
class LinkSpec:
    """One-way delay parameters of a (region, region) link class."""

    base: float
    jitter_median: float = 0.0
    jitter_sigma: float = LAN_JITTER_SIGMA

    def __post_init__(self) -> None:
        require_finite(self, "base", "jitter_median", "jitter_sigma")

    def params(self) -> Tuple[float, float, float]:
        return (self.base, self.jitter_median, self.jitter_sigma)


LAN_LINK = LinkSpec(LAN_BASE, LAN_JITTER_MEDIAN, LAN_JITTER_SIGMA)


@dataclass(frozen=True)
class RegionTopology:
    """A WAN topology: named regions and the latency between them.

    ``links`` are ``(region_a, region_b, LinkSpec)`` declarations (lookup
    is symmetric); pairs without a declaration use ``default_inter`` and
    traffic within a region uses ``intra``. The orderer lives in
    ``orderer_region`` (default: the first region).
    """

    regions: Tuple[str, ...]
    links: Tuple[Tuple[str, str, LinkSpec], ...] = ()
    intra: LinkSpec = LAN_LINK
    default_inter: LinkSpec = LinkSpec(0.048, 0.006)
    orderer_region: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.regions) < 1:
            raise ValueError("a topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError("duplicate region names")
        known = set(self.regions)
        for a, b, _ in self.links:
            if a not in known or b not in known:
                raise ValueError(f"link ({a!r}, {b!r}) references an unknown region")
        if self.orderer_region is not None and self.orderer_region not in known:
            raise ValueError(f"unknown orderer region {self.orderer_region!r}")

    def latency_spec(self) -> LatencySpec:
        """This topology as a declarative ``topology``-kind latency spec
        (what :func:`~repro.scenarios.runner.dissemination_config` hands
        to :class:`~repro.net.network.NetworkConfig`)."""
        matrix = tuple(
            [(region, region, self.intra.params()) for region in self.regions]
            + [(a, b, link.params()) for a, b, link in self.links]
        )
        return LatencySpec.of("topology", matrix=matrix, default=self.default_inter.params())


@dataclass(frozen=True)
class WorkloadSpec:
    """The block arrival process driven through the ordering service."""

    blocks: int = 60
    block_period: float = 1.5
    tx_per_block: int = 50
    tx_size: int = 3_200
    idle_tail: float = 60.0
    grace_period: float = 60.0

    def __post_init__(self) -> None:
        if self.blocks < 1:
            raise ValueError(f"WorkloadSpec.blocks must be >= 1, got {self.blocks!r}")
        require_finite(self, "block_period", positive=True)
        require_finite(self, "tx_per_block", "tx_size", "idle_tail", "grace_period")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully described deployment scenario.

    Attributes:
        name: registry key (kebab-case).
        description: one line for ``cli list``.
        gossip: zero-arg factory returning a fresh gossip config (configs
            are mutable, so the spec stores the recipe, not an instance).
        n_peers: total peers, split evenly across ``organizations``.
        organizations: organization count; org *i* is ``org{i}``.
        workload: the scaled (default) block workload.
        full_workload: optional paper-scale workload (``full=True`` runs).
        topology: optional WAN topology; ``None`` means one LAN.
        latency: optional declarative :class:`~repro.net.latency.LatencySpec`
            for deployments whose latency is not a region topology (e.g. a
            ``measured`` RTT matrix). Mutually exclusive with ``topology``,
            which carries its own latency declaration.
        link: optional :class:`~repro.net.link.LinkModel` arming sender
            bottleneck-link physics (finite bandwidth, bounded queue,
            CoDel drops) — the congestion scenario family sets this.
        placement: org→region map; defaults to round-robin over the
            topology's regions in declaration order. Also valid alongside
            a region-aware ``latency`` spec, where it must be explicit.
        background: arm the calibrated background traffic by default.
        faults: declarative fault events, compiled per run.
        seeds: default seed list for sweeps.
        per_tx_validation_time: validation cost per transaction.
        shards: default worker-process count for sharded execution
            (``repro.scenarios.sharded``); 1 means single-process. The
            executor may still fall back to 1 when the deployment cannot
            honor the window lookahead (see docs/sharding.md).
    """

    name: str
    description: str
    gossip: GossipFactory
    n_peers: int = 100
    organizations: int = 1
    workload: WorkloadSpec = WorkloadSpec()
    full_workload: Optional[WorkloadSpec] = None
    topology: Optional[RegionTopology] = None
    latency: Optional[LatencySpec] = None
    link: Optional[LinkModel] = None
    placement: Optional[Tuple[Tuple[str, str], ...]] = None
    background: bool = False
    faults: Tuple[FaultEvent, ...] = ()
    seeds: Tuple[int, ...] = (1,)
    per_tx_validation_time: float = 0.004
    shards: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        if self.n_peers < 2 or not 1 <= self.organizations <= self.n_peers:
            raise ValueError("invalid peer/organization counts")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        require_finite(self, "per_tx_validation_time")
        if (
            self.placement is not None
            and self.topology is None
            and self.latency is None
        ):
            raise ValueError("placement given without a topology or latency spec")
        if self.latency is not None:
            if self.topology is not None:
                raise ValueError("latency spec and topology are mutually exclusive")
            if not isinstance(self.latency, LatencySpec):
                raise ValueError(
                    f"latency must be a LatencySpec (a declarative value), "
                    f"got {type(self.latency).__name__}"
                )
        if self.link is not None and not isinstance(self.link, LinkModel):
            raise ValueError(f"link must be a LinkModel, got {type(self.link).__name__}")
        if self.placement is not None:
            if self.topology is not None:
                regions = self.topology.regions
            else:
                model = LatencyModel.from_spec(self.latency)
                regions = model.regions if isinstance(model, TopologyLatency) else None
            for org, region in self.placement:
                if regions is not None and region not in regions:
                    raise ValueError(
                        f"placement of {org!r} in unknown region {region!r}; "
                        f"the latency model's regions are {sorted(regions)}"
                    )

    def org_regions(self) -> Optional[Dict[str, str]]:
        """The org→region map, applying the round-robin default.

        With a ``topology``, unplaced organizations round-robin over its
        regions. With a bare region-aware ``latency`` spec (e.g. a
        ``measured`` matrix) the placement must be explicit — the spec
        cannot know the model's region names.
        """
        if self.topology is None:
            return dict(self.placement) if self.placement is not None else None
        if self.placement is not None:
            return dict(self.placement)
        regions = self.topology.regions
        return {
            f"org{index}": regions[index % len(regions)]
            for index in range(self.organizations)
        }

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A derived spec (:func:`dataclasses.replace` with validation)."""
        return replace(self, **changes)
