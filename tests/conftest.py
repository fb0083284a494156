"""Shared fixtures and lightweight fakes for the test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.gossip.view import OrganizationView
from repro.ledger.block import Block, GENESIS_PREVIOUS_HASH
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import TransactionProposal
from repro.net.latency import ConstantLatency
from repro.net.network import EveryClass, Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import Buffered, RandomStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(42)


@pytest.fixture
def network(sim, streams) -> Network:
    config = NetworkConfig(latency=ConstantLatency(0.001))
    return Network(sim, streams, config)


def make_transactions(count: int, size: int = 1_000) -> List[TransactionProposal]:
    """Inert transactions for block-plumbing tests."""
    return [
        TransactionProposal(
            tx_id=f"t{index}",
            client="test",
            chaincode_id="cc",
            args=(index,),
            rwset=ReadWriteSet(),
            size_bytes=size,
        )
        for index in range(count)
    ]


def make_chain(lengths: List[int], tx_size: int = 1_000) -> List[Block]:
    """A valid hash-linked chain; lengths[i] = tx count of block i."""
    blocks = []
    previous = GENESIS_PREVIOUS_HASH
    for number, tx_count in enumerate(lengths):
        block = Block.create(number, previous, make_transactions(tx_count, tx_size))
        blocks.append(block)
        previous = block.block_hash
    return blocks


def make_block(number: int = 0, previous: str = GENESIS_PREVIOUS_HASH, txs: int = 2) -> Block:
    return Block.create(number, previous, make_transactions(txs))


class FakeHost:
    """A minimal GossipHost for unit-testing gossip components.

    Records every message sent; exposes manual clock control; serves blocks
    from a dict. ``deliveries`` records ``(block_number, via)`` tuples.
    """

    def __init__(self, name: str = "host", seed: int = 7) -> None:
        self.name = name
        self.sim = Simulator()
        self._streams = RandomStreams(seed)
        self.sent: List[Tuple[str, object]] = []
        self.blocks: Dict[int, Block] = {}
        # What deliver_block delivered, by number (a block planted in
        # ``blocks`` directly is not in it).
        self.held_blocks: List[Optional[Block]] = []
        self.deliveries: List[Tuple[int, str]] = []
        self.height = 0
        self.timers: List[Tuple[float, object]] = []
        # Background traffic sends through ``host.network.send_aggregate``;
        # the double is its own network.
        self.network = self

    # --- GossipHost protocol ---

    @property
    def now(self) -> float:
        return self.sim.now

    def send(self, dst: str, message) -> None:
        self.sent.append((dst, message))

    def multicast(self, dsts, message) -> None:
        # Per-copy recording keeps fanout traffic observable exactly like
        # a send loop, matching the real host's equivalence contract.
        for dst in dsts:
            self.sent.append((dst, message))

    def send_aggregate(self, src: str, dsts, message) -> None:
        # One row per copy: the monitor accounts an aggregate per copy too.
        assert src == self.name
        self.multicast(dsts, message)

    def rng(self, purpose: str) -> Buffered:
        return self._streams.buffered(f"{self.name}:{purpose}", self.sim)

    def after(self, delay: float, callback, *args):
        return self.sim.schedule(delay, callback, *args)

    def every(self, period: float, callback, initial_delay: Optional[float] = None):
        from repro.simulation.timers import PeriodicTimer

        timer = PeriodicTimer(self.sim, period, callback, initial_delay=initial_delay)
        self.timers.append((period, timer))
        return timer

    def deliver_block(self, block: Block, via: str) -> bool:
        if block.number in self.blocks:
            return False
        self.blocks[block.number] = block
        self.deliveries.append((block.number, via))
        held = self.held_blocks
        if block.number >= len(held):
            held.extend([None] * (block.number + 1 - len(held)))
        held[block.number] = block
        return True

    def get_block(self, number: int) -> Optional[Block]:
        return self.blocks.get(number)

    @property
    def ledger_height(self) -> int:
        return self.height

    def known_block_numbers(self, window: int) -> List[int]:
        if not self.blocks:
            return []
        top = max(self.blocks)
        return [n for n in range(max(0, top - window + 1), top + 1) if n in self.blocks]

    # --- test conveniences ---

    def sent_to(self, dst: str) -> List[object]:
        return [message for target, message in self.sent if target == dst]

    def sent_kinds(self) -> List[str]:
        return [message.kind for _, message in self.sent]

    def run(self, until: float) -> None:
        self.sim.run(until=until)


def make_view(
    self_name: str = "p0",
    org_size: int = 5,
    leader: str = "p0",
) -> OrganizationView:
    peers = [f"p{i}" for i in range(org_size)]
    return OrganizationView(
        self_name=self_name, org_peers=peers, channel_peers=peers, leader=leader
    )


def _call(handler, src: str, message) -> None:
    handler(src, message)


_SINK = EveryClass((1, _call))


def routes_to(handler) -> tuple:
    """Routes that hand every message, whatever its class, to
    ``handler(src, message)``: a test node on the route-tuple API
    (:meth:`repro.net.network.Network.register`)."""
    return (_SINK, handler)


def dispatch(module, src: str, message) -> bool:
    """Hand ``message`` to a gossip ``module`` through its class's
    ``ROUTES``, as a peer's delivery does; False when the table does not
    hold the message's class (a peer's network ignores it)."""
    route = module.ROUTES.get(type(message))
    if route is None:
        return False
    index, handler = route
    handler(module.components()[index], src, message)
    return True
