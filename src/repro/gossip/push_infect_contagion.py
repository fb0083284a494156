"""Infect-upon-contagion push with TTL counters and push digests.

This is the paper's core contribution (§IV). Every block travels with a hop
counter ``r`` initialized at 0. When a peer receives the *exact pair*
``(block, k)`` for the first time, it forwards the pair ``(block, k+1)`` to
``fout`` peers chosen uniformly at random — even if it already held the
block under a different counter — and the dissemination stops once counters
reach the agreed ``TTL``. Per-pair forwarding keeps the theoretical
branching process alive long enough to reach all peers with probability
``1 - pe`` (appendix analysis in :mod:`repro.analysis.pe`).

To avoid the communication blow-up of late rounds, where almost every peer
is informed (Fig. 11 ablation), hops beyond ``ttl_direct`` announce a small
digest first and only transfer the full block on request; with digests the
full block crosses the wire only ``n + o(n)`` times. Two bookkeeping rules
keep that bound honest:

* a peer keeps at most one block request in flight (digests arrive in
  bursts while the first transfer is still on the wire; re-requesting on
  each would multiply full-block traffic);
* a peer forwards a pair only once it *holds* the block — pairs learned
  through digests while the transfer is pending are queued and flushed on
  arrival, and requests received meanwhile are served on arrival, by
  whichever path the block arrives (push, or recovery: :meth:`settle`).
  This also guarantees digest receivers can always obtain the block from
  the digest's sender.

The single in-flight request is also the protocol's soft spot against
withholding peers (§VII): a request landing on a teaser would stall until
the anti-entropy recovery component rescues it. The request path is
therefore hardened with an *active* retry ladder: every request arms a
timer (``request_timeout``, backed off by ``retry_backoff`` per attempt);
on expiry the peer re-requests from a **different** advertised holder —
holders are remembered in digest arrival order, and the first untried one
is picked, so the rotation is deterministic and draws no randomness (and
hence composes with process sharding). After ``request_retries`` retries
the in-flight slot is released, so a later digest (or recovery) can take
over — the bounded ladder never sacrifices liveness. Counters distinguish
stalls rescued by a retry from those the recovery component had to repair.

The paper also sets ``t_push = 0`` for data blocks: Fabric's 10 ms buffer
merges pairs of the same block with different counters and sends them to a
single target sample, which biases the randomness and degrades the
probability guarantee. This component has no buffer: every new pair draws
its own target sample as it arrives.

The pairs a peer has seen are kept for the whole run — forgetting one would
re-forward a late digest of it — as one 64-bit word per block, in an
``array('Q')`` indexed by block number: bit ``k`` is set once ``(block, k)``
was seen. That bounds the counter domain: the TTL is at most
:data:`MAX_TTL` (63), and a counter above the TTL, which is never
forwarded, is not recorded either. A block the peer lacks is one
:class:`_Missing` record, from its first digest (or early request) until it
arrives.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gossip.config import MAX_TTL
from repro.gossip.messages import BlockPush, PushDigest, PushRequest
from repro.gossip.view import OrganizationView
from repro.ledger.block import Block
from repro.simulation.random import first_draw


class _InflightRequest:
    """Retry state of one outstanding block request."""

    __slots__ = ("counter", "attempts", "tried", "generation")

    def __init__(self, counter: int, target: str) -> None:
        self.counter = counter
        self.attempts = 0
        # Every target asked, in order. A list, not a count of holders
        # tried: after an abandoned ladder a later digest re-requests from
        # its own sender, which need not be the first holder, so the
        # targets tried are not a prefix of the holders.
        self.tried = [target]
        # Bumped on every (re-)send; a pending timer whose generation no
        # longer matches is stale and must not fire a retry.
        self.generation = 0


class _Missing:
    """The digest state of one block announced but not held yet, settled
    (dropped) when the block arrives."""

    __slots__ = ("holders", "pending", "request", "serves")

    def __init__(self) -> None:
        # Peers that advertised the block, in digest arrival order
        # (deduplicated): the deterministic retry rotation.
        self.holders: List[str] = []
        # Counters learned via digest, to forward once the block arrives.
        self.pending: List[int] = []
        # The outstanding PushRequest, if any.
        self.request: Optional[_InflightRequest] = None
        # Requests received before we held the block: [(requester, counter)].
        self.serves: Optional[List[Tuple[str, int]]] = None


def _grow(seen: "array[int]", number: int) -> int:
    """Extend the seen-pair words with zeros through ``number``; the word
    read there (0)."""
    seen.frombytes(bytes(seen.itemsize * (number + 1 - len(seen))))
    return 0


class InfectUponContagionPush:
    """The enhanced push component.

    Args:
        host: the gossip host (peer adapter).
        view: membership view.
        fout: fan-out per first-reception of a pair.
        ttl: stop forwarding once the outgoing counter would exceed this;
            at most :data:`MAX_TTL`.
        ttl_direct: up to this counter value blocks are pushed in full
            without a digest round-trip (collisions are rare early).
        use_digests: Fig. 11 ablation switch.
        request_timeout: base per-request timeout before retrying against
            a different digest holder; ``0`` disables the retry ladder.
        request_retries: retries per block before the in-flight slot is
            released (abandoned requests fall back to later digests or
            the recovery component).
        retry_backoff: multiplicative timeout growth per attempt.
        multicast: the host's ``multicast``, when the caller has it bound
            already (the gossip module binds it once per peer).
    """

    REQUEST_RETRY_TIMEOUT = 0.5  # default base timeout of the retry ladder
    STREAM = "iuc-push-targets"

    # One instance per peer, ~25 attributes: slots keep it a fixed table
    # (an instance dict of this size would cost more than the fields).
    __slots__ = (
        "host",
        "view",
        "fout",
        "ttl",
        "ttl_direct",
        "use_digests",
        "request_timeout",
        "request_retries",
        "retry_backoff",
        "_rng",
        "_multicast",
        "_get_block",
        "_held",
        "_seen_pairs",
        "_missing",
        "pairs_received",
        "pairs_forwarded",
        "digests_sent",
        "full_pushes_sent",
        "requests_sent",
        "requests_retried",
        "request_timeouts",
        "requests_abandoned",
        "stalls_rescued_by_retry",
    )

    def __init__(
        self,
        host,
        view: OrganizationView,
        fout: int,
        ttl: int,
        ttl_direct: int,
        use_digests: bool = True,
        request_timeout: float = REQUEST_RETRY_TIMEOUT,
        request_retries: int = 2,
        retry_backoff: float = 2.0,
        multicast: Optional[Callable[[List[str], object], None]] = None,
    ) -> None:
        if ttl > MAX_TTL:
            raise ValueError(f"ttl must be <= {MAX_TTL} (one seen-pair bit per counter)")
        self.host = host
        self.view = view
        self.fout = fout
        self.ttl = ttl
        self.ttl_direct = ttl_direct
        self.use_digests = use_digests
        self.request_timeout = request_timeout
        self.request_retries = request_retries
        self.retry_backoff = retry_backoff
        self._rng = None  # bound by first_draw
        self._multicast = multicast or host.multicast
        # get_block runs once per digest reception — the dominant message
        # class at scale — so the host hop is resolved once here.
        self._get_block = host.get_block
        # The same blocks as a list by number, for ignored_digests.
        self._held = host.held_blocks
        # Word k: the bitmask of the counters seen with block k.
        self._seen_pairs = array("Q")
        # Block number -> _Missing, for blocks announced but not held; None
        # while there are none (a built peer needs none of it).
        self._missing: Optional[Dict[int, _Missing]] = None
        self.pairs_received = 0
        self.pairs_forwarded = 0
        self.digests_sent = 0
        self.full_pushes_sent = 0
        self.requests_sent = 0
        self.requests_retried = 0
        self.request_timeouts = 0
        self.requests_abandoned = 0
        self.stalls_rescued_by_retry = 0

    # ----- receiving pairs ----------------------------------------------

    def on_pair(self, block: Block, counter: int) -> bool:
        """Process reception of the full-block pair ``(block, counter)``.

        Returns True if the pair was new. Forwards the new pair, then
        settles the block's digest state (:meth:`settle`).
        """
        number = block.number
        missing = self._missing
        if missing:
            record = missing.get(number)
            if record is not None and record.request is not None and record.request.attempts > 0:
                # The block arrived after at least one retry re-targeted
                # the request: a stall the ladder resolved without recovery.
                self.stalls_rescued_by_retry += 1
        seen = self._seen_pairs
        mask = seen[number] if number < len(seen) else _grow(seen, number)
        bit = 1 << counter
        is_new = counter <= self.ttl and not mask & bit
        if is_new:
            seen[number] = mask | bit
            self.pairs_received += 1
            self._forward(block, counter)
        self.settle(block)
        return is_new

    def settle(self, block: Block) -> None:
        """``block`` is held now: drop its :class:`_Missing` record — the
        in-flight request and holder list — forward the pairs queued while
        it was missing and serve the requests that arrived meanwhile.

        Called on every reception of a pair and on every first reception
        by another path (the orderer, recovery), so no digest state
        outlives the block's arrival.
        """
        missing = self._missing
        if not missing:
            return
        record = missing.pop(block.number, None)
        if record is None:
            return
        if not missing:
            self._missing = None
        # Queued counters were marked seen when the digest arrived but
        # never forwarded; a counter can never be both queued and newly
        # forwarded by on_pair, so every queued pair forwards exactly once.
        for queued_counter in record.pending:
            self._forward(block, queued_counter)
        if record.serves:
            for requester, requested_counter in record.serves:
                self.host.send(requester, BlockPush(block, counter=requested_counter, requested=True))
                self.full_pushes_sent += 1

    def on_digest(self, src: str, message: PushDigest) -> None:
        """A digest announces the pair ``(block, counter)``.

        If we hold the block this behaves exactly like a pair reception
        (minus the payload): a pair seen before, or past the TTL, changes
        nothing (:func:`ignored_digests`). Otherwise we request the block
        — one request in flight per block, hardened by the retry ladder:
        the sender is remembered as a holder, and should the transfer
        stall past the timeout, the retry rotates to a different
        advertised holder.
        """
        number = message.block_number
        counter = message.counter
        block = self._get_block(number)
        seen = self._seen_pairs
        mask = seen[number] if number < len(seen) else _grow(seen, number)
        bit = 1 << counter
        is_new = counter <= self.ttl and not mask & bit
        if block is not None:
            if is_new:
                seen[number] = mask | bit
                self.pairs_received += 1
                self._forward(block, counter)
            return
        record = self._record(number)
        holders = record.holders
        if src not in holders:
            holders.append(src)
        if record.request is None:
            state = record.request = _InflightRequest(counter, src)
            self.host.send(src, PushRequest(number, counter))
            self.requests_sent += 1
            self._arm_request_timer(number, state)
        if is_new:
            seen[number] = mask | bit
            self.pairs_received += 1
            record.pending.append(counter)

    def _record(self, number: int) -> _Missing:
        """The :class:`_Missing` record of ``number``, made at its first
        digest or early request."""
        missing = self._missing
        if missing is None:  # the first block we lack
            missing = self._missing = {}
        record = missing.get(number)
        if record is None:
            record = missing[number] = _Missing()
        return record

    def _arm_request_timer(self, number: int, state: _InflightRequest) -> None:
        if self.request_timeout <= 0:
            return
        delay = self.request_timeout * (self.retry_backoff ** state.attempts)
        self.host.after(delay, self._on_request_timeout, number, state.generation)

    def _on_request_timeout(self, number: int, generation: int) -> None:
        """The in-flight request for ``number`` outlived its timeout.

        Retries deterministically against the first *untried* digest
        holder in arrival order (falling back to a round-robin over all
        holders when every one was tried) — no RNG draw, so sharded and
        single-process runs retry identically. Exhausted ladders release
        the slot: a later digest re-requests from scratch, and recovery
        remains the terminal safety net.
        """
        missing = self._missing
        record = missing.get(number) if missing else None
        state = record.request if record is not None else None
        if state is None or state.generation != generation:
            return  # resolved, superseded, or already re-armed
        if self._get_block(number) is not None:
            record.request = None
            return
        self.request_timeouts += 1
        if state.attempts >= self.request_retries:
            record.request = None
            self.requests_abandoned += 1
            return
        # A request is made at a digest, which names its holder first.
        holders = record.holders
        target = None
        for holder in holders:
            if holder not in state.tried:
                target = holder
                break
        if target is None:
            target = holders[state.attempts % len(holders)]
        state.attempts += 1
        state.generation += 1
        state.tried.append(target)
        self.host.send(target, PushRequest(number, state.counter))
        self.requests_sent += 1
        self.requests_retried += 1
        self._arm_request_timer(number, state)

    def on_request(self, src: str, message: PushRequest) -> None:
        """Serve a full block requested after one of our digests."""
        number = message.block_number
        block = self._get_block(number)
        if block is None:
            # We advertised the pair but are still waiting for the block
            # ourselves (possible only in pathological interleavings);
            # serve as soon as it lands rather than dropping the request.
            record = self._record(number)
            if record.serves is None:
                record.serves = [(src, message.counter)]
            else:
                record.serves.append((src, message.counter))
            return
        self.host.send(src, BlockPush(block, counter=message.counter, requested=True))
        self.full_pushes_sent += 1

    def missing_numbers(self) -> List[int]:
        """The blocks this push keeps a :class:`_Missing` record for, in
        number order (end-of-run audits: none of them may be held)."""
        return sorted(self._missing or ())

    # ----- forwarding ------------------------------------------------------

    def _forward(self, block: Block, received_counter: int) -> None:
        next_counter = received_counter + 1
        if next_counter > self.ttl:
            return
        # Inline of the former _send_pair: sample + transmit without an
        # extra frame on the per-pair hot path.
        self._transmit(
            block, next_counter, self.view.sample_org(self._rng or first_draw(self), self.fout)
        )

    def _transmit(self, block: Block, counter: int, targets: List[str]) -> None:
        # One message instance is shared across the fanout: gossip messages
        # are immutable after construction and receivers only read fields,
        # so per-target copies would differ in nothing but allocation cost.
        # The whole fanout goes out as one multicast (one pooled network
        # event, vectorized accounting, per-destination physics intact).
        if self.use_digests and counter > self.ttl_direct:
            self._multicast(targets, PushDigest(block.number, block.block_hash, counter))
            self.digests_sent += len(targets)
        else:
            self._multicast(targets, BlockPush(block, counter=counter))
            self.full_pushes_sent += len(targets)
        self.pairs_forwarded += 1

    # ----- bookkeeping ----------------------------------------------------

    def mark_seen(self, block_number: int, counter: int) -> None:
        """Record the pair as seen without forwarding (leader initiation)."""
        seen = self._seen_pairs
        mask = seen[block_number] if block_number < len(seen) else _grow(seen, block_number)
        seen[block_number] = mask | (1 << counter)


_ON_DIGEST = InfectUponContagionPush.on_digest


def ignored_digests(
    routes: Dict[str, tuple], dsts: Sequence[str], message: PushDigest
) -> Optional[List[str]]:
    """The destinations in ``dsts`` on which ``message`` would change
    nothing, or None: the ``ignored`` predicate of
    :meth:`repro.net.network.Network.elide` for :class:`PushDigest`.

    A destination is named when its routes (``routes[dst]``, see
    :meth:`~repro.net.network.Network.set_routes`) hand a digest to the
    stock :meth:`InfectUponContagionPush.on_digest` (a digest liar's do
    not), and its push holds the block and has seen the pair, or the
    counter exceeds its TTL: ``on_digest``'s mask test finding the pair
    not new while ``get_block`` finds the block, the case in which it
    returns without touching state. It is asked once per fan-out and
    reads the seen word and the held list inline, with no call per copy.
    """
    number = message.block_number
    counter = message.counter
    bit = 1 << counter
    ignored = None
    for dst in dsts:
        node = routes.get(dst)
        if node is None:
            continue
        route = node[0].get(PushDigest)
        if route is None or route[1] is not _ON_DIGEST:
            continue
        push = node[route[0]]
        held = push._held
        if number >= len(held) or held[number] is None:
            continue
        if counter <= push.ttl:
            seen = push._seen_pairs
            if number >= len(seen) or not seen[number] & bit:
                continue
        if ignored is None:
            ignored = [dst]
        else:
            ignored.append(dst)
    return ignored
