"""Assembly of a complete simulated Fabric network.

``build_network`` wires everything the paper's testbed had: an MSP, the
ordering service, one or more organizations of peers with per-org leaders,
a pluggable gossip module per peer, calibrated background traffic and the
measurement trackers. Experiments and tests build on this single entry
point.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Dict, FrozenSet, List, Optional, Union

from repro.crypto.identity import MembershipServiceProvider
from repro.fabric.config import OrdererConfig, PeerConfig
from repro.fabric.endorsement import EndorsementPolicy
from repro.fabric.orderer import OrderingService
from repro.fabric.peer import Peer
from repro.gossip.config import (
    BackgroundTrafficConfig,
    EnhancedGossipConfig,
    OriginalGossipConfig,
)
from repro.gossip.enhanced import EnhancedGossip
from repro.gossip.original import OriginalGossip
from repro.gossip.view import build_views
from repro.metrics.conflicts import ConflictTracker
from repro.metrics.latency import DisseminationTracker
from repro.net.network import Network, NetworkConfig
from repro.simulation._core.engine import Simulator
from repro.simulation.random import RandomStreams

GossipChoice = Union[OriginalGossipConfig, EnhancedGossipConfig]


def organization_members(n_peers: int, organizations: int) -> Dict[str, List[str]]:
    """The canonical peer naming and org assignment of every deployment.

    ``peer-{i}`` belongs to ``org{i % organizations}``. Both
    :func:`build_network` and the shard planner
    (:func:`repro.scenarios.sharded.plan_for`) derive node placement from
    this single function, so the planner's region map can never silently
    diverge from the deployment actually built.
    """
    org_members: Dict[str, List[str]] = {}
    for index in range(n_peers):
        org = f"org{index % organizations}"
        org_members.setdefault(org, []).append(f"peer-{index}")
    return org_members


def node_region_placement(
    org_members: Dict[str, List[str]],
    org_regions: Dict[str, str],
    orderer_region: Optional[str] = None,
) -> Dict[str, str]:
    """Expand an org→region placement to the node→region map.

    Every peer inherits its organization's region; the orderer defaults
    to the first placed region in sorted order.
    """
    missing = sorted(set(org_members) - set(org_regions))
    if missing:
        raise ValueError(f"organizations without a region placement: {missing}")
    region_of: Dict[str, str] = {}
    for org, members in org_members.items():
        region = org_regions[org]
        for name in members:
            region_of[name] = region
    region_of["orderer"] = orderer_region or sorted(set(org_regions.values()))[0]
    return region_of


def gossip_factory(choice: GossipChoice) -> Callable:
    """A ``(peer, view) -> GossipModule`` factory for the given config."""
    if isinstance(choice, OriginalGossipConfig):
        return lambda peer, view: OriginalGossip(peer, view, choice)
    if isinstance(choice, EnhancedGossipConfig):
        return lambda peer, view: EnhancedGossip(peer, view, choice)
    raise TypeError(f"unknown gossip configuration: {type(choice).__name__}")


def _foreign_delivery(name: str, src, message):
    """The handler of a node another shard executes, bound to its name
    (``MethodType(_foreign_delivery, name)``, 64 B: a shard holds one per
    foreign node): a delivery for it here is a routing bug, raised loudly
    instead of silently dropped."""
    raise AssertionError(
        f"executed a delivery for foreign node {name!r} (from {src!r}), "
        "which another shard executes — cross-shard routing bug"
    )


@dataclass
class FabricNetwork:
    """A wired simulated deployment.

    ``peers`` (and ``orderer``) hold the nodes this process executes —
    every node, unless the network was built for one shard.
    ``org_members``, ``leaders``, ``peer_names`` and ``n_peers`` describe
    the whole membership either way.
    """

    sim: Simulator
    streams: RandomStreams
    network: Network
    msp: MembershipServiceProvider
    orderer: Optional[OrderingService]
    peers: Dict[str, Peer]
    org_members: Dict[str, List[str]]
    leaders: Dict[str, str]
    tracker: DisseminationTracker
    conflicts: ConflictTracker
    gossip_choice: GossipChoice

    @property
    def peer_names(self) -> List[str]:
        return sorted(name for members in self.org_members.values() for name in members)

    @property
    def n_peers(self) -> int:
        return sum(len(members) for members in self.org_members.values())

    def leader_of(self, org: str) -> Peer:
        return self.peers[self.leaders[org]]

    def regular_peers(self, org: Optional[str] = None) -> List[str]:
        """Non-leader peer names (optionally of one organization)."""
        leaders = set(self.leaders.values())
        names = []
        for organization, members in self.org_members.items():
            if org is not None and organization != org:
                continue
            names.extend(name for name in members if name not in leaders)
        return sorted(names)

    def start(self) -> None:
        """Arm every peer's gossip and background timers."""
        for peer in self.peers.values():
            peer.start()

    def run_until(
        self,
        predicate: Callable[[], bool],
        step: float = 1.0,
        max_time: float = 100_000.0,
    ) -> float:
        """Advance the simulation until ``predicate()`` holds.

        Periodic gossip timers never drain the event queue, so open-ended
        experiments advance in ``step`` increments and test a completion
        predicate between steps.
        """
        while not predicate():
            if self.sim.now >= max_time:
                raise TimeoutError(f"predicate still false at t={self.sim.now}")
            self.sim.run(until=min(self.sim.now + step, max_time))
        return self.sim.now

    def all_peers_received(self, block_count: int) -> bool:
        """Every present peer holds every block below ``block_count``.

        Peers the churn engine removed from the membership (``departed``)
        are exempt — they will never catch up, and the completion
        predicate must not wait for them.
        """
        for peer in self.peers.values():
            if peer.departed:
                continue
            chain = peer.blockchain
            if chain.max_known_number() < block_count - 1:
                return False
            if chain.missing_ranges(block_count):
                return False
        return True


def build_network(
    n_peers: int,
    gossip: GossipChoice,
    seed: int = 1,
    organizations: int = 1,
    network_config: Optional[NetworkConfig] = None,
    peer_config: Optional[PeerConfig] = None,
    orderer_config: Optional[OrdererConfig] = None,
    background: Optional[BackgroundTrafficConfig] = None,
    policy: Optional[EndorsementPolicy] = None,
    org_regions: Optional[Dict[str, str]] = None,
    orderer_region: Optional[str] = None,
    owned: Optional[FrozenSet[str]] = None,
) -> FabricNetwork:
    """Build the deployment of the paper's §V-A (defaults: one org).

    Args:
        n_peers: total number of peers, split evenly across organizations.
        gossip: an :class:`OriginalGossipConfig` or
            :class:`EnhancedGossipConfig`; applied to every peer.
        seed: master seed for all random streams.
        organizations: number of organizations; each gets a leader (its
            first peer) to which the orderer sends every block.
        org_regions: organization→region placement for multi-datacenter
            topologies. Every peer inherits its organization's region; the
            resulting node→region map is stored on the network config and
            assigned to region-aware latency models (``assign_regions``)
            before any sampler is bound.
        orderer_region: region of the ordering service; defaults to the
            first placed region (sorted) when ``org_regions`` is given.
        owned: the node names this process executes (one shard of a
            sharded run); ``None`` builds every node. A name outside
            ``owned`` is enrolled, placed and registered on the network
            like any other, but its handler is a guard that raises on
            delivery, and no peer, view, gossip or background module (or
            ordering service) is built for it.
    """
    if n_peers < 2:
        raise ValueError("need at least 2 peers")
    if organizations < 1 or organizations > n_peers:
        raise ValueError("invalid organization count")
    org_members = organization_members(n_peers, organizations)
    leaders = {org: members[0] for org, members in org_members.items()}

    if org_regions is not None:
        region_of = node_region_placement(org_members, org_regions, orderer_region)
        # The caller's config object is never mutated: the placement lands
        # on a shallow copy (the latency model is shared — fresh builds
        # should pass a fresh model, as the scenario runner does).
        base_config = network_config or NetworkConfig()
        merged = dict(base_config.regions or {})
        merged.update(region_of)
        network_config = dataclasses.replace(base_config, regions=merged)
        # Region-aware models receive the placement before the Network
        # binds its samplers (the bound closures resolve pairs lazily, but
        # assigning first keeps the model fully initialized up front).
        assign = getattr(network_config.latency, "assign_regions", None)
        if assign is not None:
            assign(region_of)

    sim = Simulator()
    streams = RandomStreams(seed)
    network = Network(sim, streams, network_config)
    msp = MembershipServiceProvider()
    tracker = DisseminationTracker()
    conflicts = ConflictTracker()

    views = build_views(org_members, leaders, owned)

    factory = gossip_factory(gossip)
    peer_config = peer_config or PeerConfig()  # one for every peer
    peers: Dict[str, Peer] = {}
    for org, members in org_members.items():
        for name in members:
            identity = msp.enroll(name, org, "peer")
            if owned is not None and name not in owned:
                network.register(name, MethodType(_foreign_delivery, name))
                continue
            peer = Peer(
                sim,
                network,
                streams,
                identity,
                views[name],
                config=peer_config,
                policy=policy,
                tracker=tracker,
                conflicts=conflicts,
            )
            peer.attach_gossip(factory)
            if background is not None:
                peer.attach_background(background)
            peers[name] = peer

    msp.enroll("orderer", "ordering-org", "orderer")
    orderer: Optional[OrderingService] = None
    if owned is None or "orderer" in owned:
        orderer = OrderingService(
            sim,
            network,
            streams,
            name="orderer",
            config=orderer_config,
            org_leaders=leaders,
            tracker=tracker,
        )
    else:
        network.register("orderer", MethodType(_foreign_delivery, "orderer"))

    return FabricNetwork(
        sim=sim,
        streams=streams,
        network=network,
        msp=msp,
        orderer=orderer,
        peers=peers,
        org_members=org_members,
        leaders=leaders,
        tracker=tracker,
        conflicts=conflicts,
        gossip_choice=gossip,
    )
