"""The Fabric peer.

A peer maintains a full copy of the ledger, participates in gossip (as
leader or regular peer), validates blocks strictly in order (head-of-line:
a missing block stalls everything behind it) and, when configured as an
endorser, simulates chaincodes for clients. The peer implements the
:class:`~repro.gossip.base.GossipHost` protocol, so both gossip modules
plug in unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional

from repro.crypto.identity import Identity
from repro.fabric.chaincode import ChaincodeRegistry
from repro.fabric.config import PeerConfig, ValidationMode
from repro.fabric.endorsement import DEFAULT_POLICY, EndorsementPolicy
from repro.fabric.messages import EndorsementRequest, EndorsementResponse, OrdererBlock
from repro.fabric.validation import validate_block
from repro.gossip.background import BackgroundTraffic
from repro.gossip.base import GossipModule
from repro.gossip.config import BackgroundTrafficConfig
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.ledger.chain import Blockchain
from repro.ledger.kvstore import KeyValueStore
from repro.ledger.transaction import Endorsement
from repro.metrics.conflicts import ConflictTracker
from repro.metrics.latency import DisseminationTracker
from repro.net.message import Message
from repro.net.network import Network
from repro.simulation.process import Process
from repro.simulation.random import RandomStreams


# Reception path -> the counter deliver_block bumps.
_VIA_COUNTER = {
    "orderer": "_via_orderer",
    "push": "_via_push",
    "pull": "_via_pull",
    "recovery": "_via_recovery",
}


@lru_cache(maxsize=None)
def route_table(module_class: type, peer_class: type) -> dict:
    """The routes of every peer of ``peer_class`` running ``module_class``:
    ``{message class: (index, function)}`` over a peer's route tuple
    ``(table, peer, *module.components())``. Built once per pair of
    classes and shared by reference, so it is never written to: a peer
    that routes differently holds its own copy (:attr:`Peer.route_table`)."""
    table = {cls: (index + 2, fn) for cls, (index, fn) in module_class.ROUTES.items()}
    table[OrdererBlock] = (1, peer_class._on_orderer_block)
    table[EndorsementRequest] = (1, peer_class._on_endorsement_request)
    return table


class Peer(Process):
    """One Fabric peer (possibly the org leader and/or an endorser)."""

    # Built once per peer, like everything it holds: slots, no dict.
    __slots__ = (
        "identity",
        "network",
        "view",
        "config",
        "policy",
        "tracker",
        "conflicts",
        "blockchain",
        "state",
        "chaincodes",
        "gossip",
        "background",
        "defer_start",
        "departed",
        "_validating",
        "_via_orderer",
        "_via_push",
        "_via_pull",
        "_via_recovery",
        "_routes",
    )

    def __init__(
        self,
        sim,
        network: Network,
        streams: RandomStreams,
        identity: Identity,
        view: OrganizationView,
        config: Optional[PeerConfig] = None,
        policy: Optional[EndorsementPolicy] = None,
        tracker: Optional[DisseminationTracker] = None,
        conflicts: Optional[ConflictTracker] = None,
    ) -> None:
        super().__init__(sim, identity.name, streams)
        self.identity = identity
        self.network = network
        self.view = view
        self.config = config or PeerConfig()
        self.policy = policy or DEFAULT_POLICY
        self.tracker = tracker
        self.conflicts = conflicts
        self.blockchain = Blockchain()
        self.state = KeyValueStore()
        self.chaincodes = ChaincodeRegistry()
        self.gossip: Optional[GossipModule] = None
        self.background: Optional[BackgroundTraffic] = None
        # Churn engine flags (repro.faults.churn): a deferred peer is built
        # but held out of the deployment until its JoinEvent fires; a
        # departed peer has left for good and is excluded from completion
        # predicates.
        self.defer_start = False
        self.departed = False
        self._validating = False
        # First receptions by path (blocks_received_via).
        self._via_orderer = 0
        self._via_push = 0
        self._via_pull = 0
        self._via_recovery = 0
        # (route table, self, *gossip components): the class's shared
        # table and the objects its indices address. While the peer is
        # alive the network holds it (Network.set_routes) and calls the
        # handlers directly. None until a gossip module is attached: the
        # peer hears nothing until then.
        self._routes: Optional[tuple] = None
        network.register(self.name, None)

    # ----- wiring ----------------------------------------------------------

    def attach_gossip(self, factory: Callable[["Peer", OrganizationView], GossipModule]) -> None:
        """Install a gossip module built by ``factory(self, view)``."""
        if self.gossip is not None:
            raise RuntimeError(f"{self.name} already has a gossip module")
        gossip = self.gossip = factory(self, self.view)
        table = route_table(type(gossip), type(self))
        self._routes = (table, self) + gossip.components()
        self._publish_routes(self._routes)

    @property
    def route_table(self) -> Optional[dict]:
        """The table this peer's deliveries take, None without gossip.
        Assign a copy of it with some routes replaced (same indices) to
        rewire every delivery path of this peer alone, as the fault layer
        does."""
        return None if self._routes is None else self._routes[0]

    @route_table.setter
    def route_table(self, table: dict) -> None:
        # The network takes (or refuses) the new routes before the peer
        # keeps them, so a refusal leaves both on the old table.
        routes = (table,) + self._routes[1:]
        self._publish_routes(routes)
        self._routes = routes

    def _publish_routes(self, routes: Optional[tuple]) -> None:
        """Hand a live peer's ``routes`` to the network."""
        if self._alive and routes is not None:
            self.network.set_routes(self.name, routes)

    def attach_background(self, config: BackgroundTrafficConfig) -> None:
        self.background = BackgroundTraffic(self, self.view, config)

    def start(self) -> None:
        """Arm gossip timers and background traffic."""
        if self.defer_start:
            return  # held out by the churn engine until its JoinEvent
        if self.gossip is None:
            raise RuntimeError(f"{self.name} has no gossip module attached")
        self.gossip.start()
        if self.background is not None:
            self.background.start()

    @property
    def is_leader(self) -> bool:
        """Static leadership, from the view (the paper's one leader per org)."""
        return self.view.is_leader

    @property
    def blocks_received_via(self) -> Dict[str, int]:
        """First receptions by path, ``{"orderer" | "push" | "pull" |
        "recovery": count}`` (a fresh dict per read)."""
        return {
            "orderer": self._via_orderer,
            "push": self._via_push,
            "pull": self._via_pull,
            "recovery": self._via_recovery,
        }

    # ----- GossipHost protocol ---------------------------------------------

    def send(self, dst: str, message: Message) -> None:
        # network.send is looked up per call, not pre-bound, so an observer
        # that wraps it on the network instance sees gossip replies.
        if self._alive:
            self.network.send(self.name, dst, message)

    def multicast(self, dsts: List[str], message: Message) -> None:
        # The gossip fanout fast path; semantically a per-dst send loop. It
        # never goes through ``send``: an observer wraps the network
        # instance's ``send`` and ``multicast`` both.
        if self._alive:
            self.network.multicast(self.name, dsts, message)

    def deliver_block(self, block: Block, via: str) -> bool:
        """First point of contact of a block with the ledger layer."""
        is_new = self.blockchain.receive(block)
        if not is_new:
            return False
        counter = _VIA_COUNTER[via]
        setattr(self, counter, getattr(self, counter) + 1)
        if self.tracker is not None:
            if self.is_leader and via == "orderer":
                self.tracker.leader_received(block.number, self.now)
            self.tracker.first_reception(self.name, block.number, self.now)
        self._pump_validation()
        return True

    @property
    def get_block(self) -> Callable[[int], Optional[Block]]:
        """``get_block(number)``: a block this peer holds (committed or
        buffered), or None. It is the chain's own lookup, so a component
        that binds it once calls it with no peer frame in between."""
        return self.blockchain.get_any

    @property
    def held_blocks(self) -> List[Optional[Block]]:
        """The blocks this peer holds, by number (the chain's live
        :attr:`~repro.ledger.chain.Blockchain.by_number`)."""
        return self.blockchain.by_number

    @property
    def ledger_height(self) -> int:
        return self.blockchain.height

    def known_block_numbers(self, window: int) -> List[int]:
        return self.blockchain.known_numbers(window)

    # ----- message dispatch --------------------------------------------------

    def _on_orderer_block(self, src: str, message: OrdererBlock) -> None:
        # Only the org's static leader hears the orderer (its org_leaders).
        self.gossip.on_block_from_orderer(message.block)

    # ----- endorsement ------------------------------------------------------

    def _on_endorsement_request(self, src: str, request: EndorsementRequest) -> None:
        self.after(self.config.endorsement_delay, self._endorse, src, request)

    def _endorse(self, src: str, request: EndorsementRequest) -> None:
        chaincode = self.chaincodes.get(request.chaincode_id)
        if chaincode is None:
            return  # unknown chaincode: no endorsement (client will time out)
        rwset = chaincode.simulate(self.state, request.args)
        endorsement = Endorsement.create(self.identity, rwset)
        self.send(src, EndorsementResponse(request.request_id, rwset, endorsement))

    # ----- validation pipeline ------------------------------------------------

    def _pump_validation(self) -> None:
        """Start validating the next in-sequence block, if idle.

        Blocks commit strictly in order; a missing block number stalls the
        pipeline until gossip (or recovery) fills the gap.
        """
        if self._validating:
            return
        block = self.blockchain.peek_ready()
        if block is None:
            return
        self._validating = True
        delay = self.config.per_tx_validation_time * block.tx_count
        self.after(delay, self._commit, block)

    def _commit(self, block: Block) -> None:
        # The chain checks sequence, linkage and data hash as it appends —
        # once: a block it refuses raises before validation writes the
        # world state.
        self.blockchain.commit(block)
        if self.config.validation_mode is ValidationMode.FULL:
            result = validate_block(block, self.state, self.policy)
            if self.conflicts is not None:
                self.conflicts.record_block_validation(self.name, result)
        if self.tracker is not None:
            self.tracker.committed(block.number, self.now)
        self._validating = False
        self._pump_validation()

    # ----- faults -------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop timers, mark the peer dead and withdraw its routes: a dead
        but still connected peer (churn leave) hears nothing, and the
        per-message path needs no liveness test."""
        super().shutdown()
        self.network.set_routes(self.name, None)

    def restart(self) -> None:
        super().restart()
        self._publish_routes(self._routes)

    def crash(self) -> None:
        """Crash the peer: disconnect, stop timers, drop in-flight work.
        The network disconnects it (or refuses to) before anything of the
        peer changes."""
        self.network.set_disconnected(self.name, True)
        self.shutdown()
        self._validating = False

    def recover(self) -> None:
        """Reconnect after a crash; recovery gossip will catch the ledger up."""
        self.restart()
        self.network.set_disconnected(self.name, False)
        if self.gossip is not None:
            self.gossip._started = False
            self.gossip.start()
        if self.background is not None:
            self.background.start()
        self._pump_validation()
