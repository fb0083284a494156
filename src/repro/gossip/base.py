"""Gossip module interface and host protocol.

A gossip module is plugged into a peer (its *host*). The host supplies
identity, networking, timers, RNG streams, and the ledger-facing operations
(deliver / serve blocks); the module implements the dissemination policy.
This mirrors Fabric's layering, where the gossip component is a separate
package from the ledger and validation machinery, and is what lets the
experiments swap the original module for the enhanced one with one config
switch.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.ledger.block import Block
from repro.net.message import Message
from repro.gossip.view import OrganizationView
from repro.simulation.random import Buffered


class GossipHost(Protocol):
    """What a gossip module needs from its hosting peer."""

    name: str

    @property
    def now(self) -> float: ...

    def send(self, dst: str, message: Message) -> None:
        """Send a gossip message to another peer."""

    def multicast(self, dsts: List[str], message: Message) -> None:
        """Send one shared message to several peers (fanout fast path).

        Must be semantically identical to calling :meth:`send` once per
        destination in order — components rely on that equivalence for
        the determinism contract (see :meth:`repro.net.network.Network.multicast`).
        """

    def rng(self, purpose: str) -> Buffered:
        """Deterministic RNG stream scoped to the host and purpose, seeded
        by the first call — components bind it at their first draw
        (:func:`repro.simulation.random.first_draw`), not at construction."""

    def after(self, delay: float, callback: Callable, *args) -> None:
        """One-shot timer, not cancellable."""

    def every(
        self, period: float, callback: Callable[[], None], initial_delay: Optional[float] = None
    ) -> object:
        """Periodic timer, first firing after ``initial_delay`` (default:
        one period)."""

    def deliver_block(self, block: Block, via: str) -> bool:
        """Hand a received full block to the ledger layer.

        Returns True if the block was previously unknown to this peer
        (first reception), False for duplicates.
        """

    def get_block(self, number: int) -> Optional[Block]:
        """A block this peer holds (committed or buffered), for serving.

        Components bind ``host.get_block`` once, at construction."""

    @property
    def held_blocks(self) -> List[Optional[Block]]:
        """The same blocks as a list by number, ``None`` for a gap: the
        live list, extended in place, read where a call per lookup costs
        too much. Components bind it once, at construction, and never
        write to it."""

    @property
    def ledger_height(self) -> int:
        """Committed chain height."""

    def known_block_numbers(self, window: int) -> List[int]:
        """Recent block numbers this peer holds (pull digest contents)."""


class GossipModule:
    """Base class for the original and enhanced gossip modules."""

    # One module per peer: every class down to the components it holds is
    # slotted, so a peer costs its protocol state and no instance dicts.
    __slots__ = ("host", "view", "_multicast", "_started")

    #: ``{message class: (component index, function)}``, one table per
    #: module class: ``function(components()[index], src, message)``
    #: handles a message of exactly that class, and the network ignores
    #: any other. A module holds no table of its own and is not a
    #: dispatcher: the hosting peer builds one table per class from this
    #: one and hands the network its routes, the only path a message
    #: takes to a handler (:meth:`repro.fabric.peer.Peer.attach_gossip`,
    #: :meth:`repro.net.network.Network.set_routes`).
    ROUTES: Dict[type, Tuple[int, Callable]]

    def __init__(self, host: GossipHost, view: OrganizationView) -> None:
        self.host = host
        self.view = view
        # host.multicast resolves liveness itself, so the binding stays
        # valid across crash/recover. Bound once per peer: the module hands
        # it to its components.
        self._multicast = host.multicast
        self._started = False

    def start(self) -> None:
        """Arm periodic components. Idempotent."""
        if self._started:
            return
        self._started = True
        self._start_components()

    def _start_components(self) -> None:
        raise NotImplementedError

    def on_block_from_orderer(self, block: Block) -> None:
        """Entry point on the leader peer for blocks from the ordering
        service."""
        raise NotImplementedError

    def components(self) -> tuple:
        """The objects :attr:`ROUTES` addresses, by index."""
        raise NotImplementedError

    # ----- helpers shared by both modules ------------------------------

    def _deliver(self, block: Block, via: str) -> bool:
        """Deliver to the host ledger; returns first-reception flag."""
        return self.host.deliver_block(block, via)
