"""Byzantine adversary taxonomy beyond the paper's teasing peer.

The paper's §VII evaluates the enhanced module against silent and teasing
peers; the teaser is :class:`~repro.faults.injectors.TeasingPeerFault`.
This module holds the rest of a practical byzantine arsenal:

* :class:`LazyForwarderFault` — peers that *probabilistically* shirk
  forwarding work (a tunable interpolation between honest and silent;
  at ``drop_prob=1.0`` it is the paper's silent peer);
* :class:`DigestLiarFault` — peers that advertise blocks they will not
  serve (and re-advertise digests for blocks they do not even hold),
  poisoning the digest holder sets honest peers retry against;
* :class:`EclipseFault` — a coalition that monopolizes a victim's
  connectivity: while active, every message between the victim and any
  non-attacker is dropped, leaving the victim's view of the ledger
  entirely in attacker hands.

*Asymmetric* link loss (one direction of a region pair degrades, the
reverse stays clean) is not byzantine but produces the same observable
stalls; it is a :class:`~repro.faults.injectors.LinkDegradeFault` with a
one-way link filter on ``faults:flaky:<src>`` streams
(:mod:`repro.faults.schedule`).

RNG-stream contract (docs/faults.md): every probabilistic adversary draws
from dedicated **per-source** streams: ``faults:lazy:<src>`` via
:class:`~repro.faults.injectors.PerSourceStreams`, and each liar's
buffered ``faults:liar:<name>`` for its view sampling. Drop decisions
happen at send time on the sender's shard and digest lies happen on the
liar's own delivery path, so every adversary here composes with process
sharding bit-for-bit (docs/sharding.md). :class:`EclipseFault` draws no
randomness at all, and neither does a lazy forwarder at ``drop_prob=1.0``.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from repro.faults.injectors import DropFault, PerSourceStreams
from repro.gossip.messages import BlockPush, PushDigest
from repro.net.message import Message
from repro.net.network import Network
from repro.simulation.random import RandomStreams


class LazyForwarderFault(DropFault):
    """Peers that drop their forwarding work with probability ``drop_prob``.

    Forwarding work is push digests and unsolicited block forwards;
    requested serves and the peer's own fetches pass (an adversary wants
    the ledger too, and one that never advertised is never asked to
    serve). At ``drop_prob=1.0`` this is the paper's silent free-rider
    (``AdversaryEvent(kind="silent")``), which drops every such copy and
    draws nothing; at ``0.0`` it is an honest peer. Otherwise each draw
    comes from the sender's ``faults:lazy:<src>`` stream, one draw per
    candidate copy in destination order.
    """

    def __init__(
        self,
        network: Network,
        lazy_peers: Iterable[str],
        drop_prob: float,
        streams: RandomStreams,
        active: bool = True,
    ) -> None:
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {drop_prob}")
        self.lazy: Set[str] = set(lazy_peers)
        self.drop_prob = drop_prob
        self._rng_for = PerSourceStreams(streams, "faults:lazy")
        super().__init__(network, active)

    def drops(self, src: str, dst: str, message: Message) -> bool:
        if src not in self.lazy:
            return False
        if not (
            isinstance(message, PushDigest)
            or (isinstance(message, BlockPush) and not message.requested)
        ):
            return False
        return self.drop_prob >= 1.0 or self._rng_for(src).random() < self.drop_prob


class DigestLiarFault(DropFault):
    """Peers that advertise blocks they will not (or cannot) serve.

    A liar's ``PushDigest`` handler is rewired: instead of requesting the
    announced block (or forwarding the pair), it re-advertises the digest
    verbatim to ``lie_fanout`` random org peers — spreading adverts for a
    block it does not hold — and never issues a ``PushRequest``. Any
    requested serve a liar *would* send (for blocks it does hold) is
    dropped at the network's drop stage. Honest peers that picked a liar as
    their digest holder stall until the request-retry path rotates to a
    different holder (or recovery rescues them); the liars themselves
    catch up through recovery only.

    Re-advertising draws targets from the liar's own
    ``faults:liar:<name>`` stream on its own delivery path, so the fault
    composes with sharding: ``peers`` holds the peers this process
    executes, and only the liars among them are rewired (the drop stage
    covers every liar, since a serve drops on its sender's shard).
    """

    def __init__(
        self,
        network: Network,
        peers: dict,
        liars: Iterable[str],
        streams: RandomStreams,
        lie_fanout: int = 2,
        active: bool = True,
    ) -> None:
        if lie_fanout < 0:
            raise ValueError(f"lie fanout must be >= 0, got {lie_fanout}")
        self.liars: Set[str] = set(liars)
        unknown = sorted(name for name in self.liars if name not in network)
        if unknown:
            raise ValueError(f"digest-liar fault names unknown peers: {unknown}")
        self.lie_fanout = lie_fanout
        self.lies_told = 0
        self._streams = streams
        super().__init__(network, active)
        for name in sorted(self.liars):
            if name in peers:
                self._rewire(peers[name])

    def _rewire(self, peer) -> None:
        """Give one liar peer its own route table, the lying digest handler
        in place of the honest one: a liar costs one table, an honest peer
        none."""
        table = peer.route_table
        route = None if table is None else table.get(PushDigest)
        if route is None:
            raise ValueError(
                f"{peer.name} runs a gossip module without push digests; "
                "digest liars need the enhanced module"
            )
        index, honest = route
        rng = self._streams.buffered(f"faults:liar:{peer.name}", self._network.sim)
        view = peer.view

        def lying_on_digest(push, src: str, message: PushDigest) -> None:
            if not self._active:
                honest(push, src, message)
                return
            self.lies_told += 1
            targets = view.sample_org(rng, self.lie_fanout)
            if targets:
                peer.multicast(targets, message)

        # The peer hands its routes to the network, and its restart
        # re-publishes them: one assignment rewires every path.
        peer.route_table = {**table, PushDigest: (index, lying_on_digest)}

    def drops(self, src: str, dst: str, message: Message) -> bool:
        return src in self.liars and isinstance(message, BlockPush) and message.requested


class EclipseFault(DropFault):
    """A coalition monopolizes the victim's connectivity.

    While active, every message between ``victim`` and any node that is
    neither an attacker nor in ``protect`` is dropped — both directions,
    so the victim neither hears honest digests nor reaches honest serving
    peers. The orderer is protected by default (its atomic-broadcast
    links are reliable in Fabric; a non-leader victim receives nothing
    from it anyway). Purely structural: no RNG draws, trivially
    shard-safe (each drop happens on its sender's shard).
    """

    def __init__(
        self,
        network: Network,
        victim: str,
        attackers: Iterable[str],
        active: bool = True,
        protect: Tuple[str, ...] = ("orderer",),
    ) -> None:
        self.victim = victim
        self.attackers: Set[str] = set(attackers)
        if self.victim in self.attackers:
            raise ValueError(f"victim {victim!r} cannot be its own attacker")
        self.protect: Set[str] = set(protect)
        super().__init__(network, active)

    def drops(self, src: str, dst: str, message: Message) -> bool:
        if src == self.victim:
            other = dst
        elif dst == self.victim:
            other = src
        else:
            return False
        return other not in self.attackers and other not in self.protect
