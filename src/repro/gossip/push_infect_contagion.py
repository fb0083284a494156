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
re-forward a late digest of it — as one int per block: a bitmask with bit
``k`` set once ``(block, k)`` was seen. Counters stop at the TTL (tens at
most), so a block's mask is one small int and one dict slot, not a heap
int and a set slot per pair.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
        self.tried = [target]
        # Bumped on every (re-)send; a pending timer whose generation no
        # longer matches is stale and must not fire a retry.
        self.generation = 0


class InfectUponContagionPush:
    """The enhanced push component.

    Args:
        host: the gossip host (peer adapter).
        view: membership view.
        fout: fan-out per first-reception of a pair.
        ttl: stop forwarding once the outgoing counter would exceed this.
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
        "_seen_pairs",
        "_inflight_requests",
        "_digest_holders",
        "_pending_pairs",
        "_pending_serves",
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
        # block number -> bitmask of the counters seen with it.
        self._seen_pairs: Dict[int, int] = {}
        # The digest state of blocks announced but not held yet, made at
        # the first such digest (or request, for _pending_serves: a built
        # peer needs none of it) and settled when the block arrives:
        # blocks with an outstanding PushRequest: block number -> retry state;
        self._inflight_requests: Optional[Dict[int, _InflightRequest]] = None
        # peers that advertised the block, in digest arrival order
        # (deduplicated) — the deterministic retry rotation;
        self._digest_holders: Optional[Dict[int, List[str]]] = None
        # counters learned via digest, to forward once the block arrives;
        self._pending_pairs: Optional[Dict[int, List[int]]] = None
        # requests received before we held the block: [(requester, counter)].
        self._pending_serves: Optional[Dict[int, List[Tuple[str, int]]]] = None
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
        inflight = self._inflight_requests
        if inflight:
            state = inflight.get(number)
            if state is not None and state.attempts > 0:
                # The block arrived after at least one retry re-targeted
                # the request: a stall the ladder resolved without recovery.
                self.stalls_rescued_by_retry += 1
        seen = self._seen_pairs.get(number, 0)
        bit = 1 << counter
        is_new = not seen & bit
        if is_new:
            self._seen_pairs[number] = seen | bit
            self.pairs_received += 1
            self._forward(block, counter)
        self.settle(block)
        return is_new

    def settle(self, block: Block) -> None:
        """``block`` is held now: drop its in-flight request and holder
        list, forward the pairs queued while it was missing and serve the
        requests that arrived meanwhile.

        Called on every reception of a pair and on every first reception
        by another path (the orderer, recovery), so no digest state
        outlives the block's arrival.
        """
        number = block.number
        if self._inflight_requests:
            self._inflight_requests.pop(number, None)
        if self._digest_holders:
            self._digest_holders.pop(number, None)
        pending = self._pending_pairs
        if pending and number in pending:
            # Queued counters were marked seen when the digest arrived but
            # never forwarded; a counter can never be both queued and newly
            # forwarded by on_pair, so every queued pair forwards exactly once.
            for queued_counter in pending.pop(number):
                self._forward(block, queued_counter)
        serves = self._pending_serves
        if serves and number in serves:
            for requester, requested_counter in serves.pop(number):
                self.host.send(requester, BlockPush(block, counter=requested_counter, requested=True))
                self.full_pushes_sent += 1

    def on_digest(self, src: str, message: PushDigest) -> None:
        """A digest announces the pair ``(block, counter)``.

        If we hold the block this behaves exactly like a pair reception
        (minus the payload). Otherwise we request the block — one request
        in flight per block, hardened by the retry ladder: the sender is
        remembered as a holder, and should the transfer stall past the
        timeout, the retry rotates to a different advertised holder.
        """
        number = message.block_number
        counter = message.counter
        block = self._get_block(number)
        seen = self._seen_pairs.get(number, 0)
        bit = 1 << counter
        if block is not None:
            if not seen & bit:
                self._seen_pairs[number] = seen | bit
                self.pairs_received += 1
                self._forward(block, counter)
            return
        if self._digest_holders is None:  # the first block we lack
            self._digest_holders, self._inflight_requests, self._pending_pairs = {}, {}, {}
        holders = self._digest_holders.setdefault(number, [])
        if src not in holders:
            holders.append(src)
        state = self._inflight_requests.get(number)
        if state is None:
            state = self._inflight_requests[number] = _InflightRequest(counter, src)
            self.host.send(src, PushRequest(number, counter))
            self.requests_sent += 1
            self._arm_request_timer(number, state)
        if not seen & bit:
            self._seen_pairs[number] = seen | bit
            self.pairs_received += 1
            self._pending_pairs.setdefault(number, []).append(counter)

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
        state = self._inflight_requests.get(number)  # made with the timer
        if state is None or state.generation != generation:
            return  # resolved, superseded, or already re-armed
        if self._get_block(number) is not None:
            del self._inflight_requests[number]
            return
        self.request_timeouts += 1
        if state.attempts >= self.request_retries:
            del self._inflight_requests[number]
            self.requests_abandoned += 1
            return
        holders = self._digest_holders.get(number, [])
        target = None
        for holder in holders:
            if holder not in state.tried:
                target = holder
                break
        if target is None:
            if not holders:
                del self._inflight_requests[number]
                self.requests_abandoned += 1
                return
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
        block = self._get_block(message.block_number)
        if block is None:
            # We advertised the pair but are still waiting for the block
            # ourselves (possible only in pathological interleavings);
            # serve as soon as it lands rather than dropping the request.
            serves = self._pending_serves
            if serves is None:
                serves = self._pending_serves = {}
            serves.setdefault(message.block_number, []).append((src, message.counter))
            return
        self.host.send(src, BlockPush(block, counter=message.counter, requested=True))
        self.full_pushes_sent += 1

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
        self._seen_pairs[block_number] = self._seen_pairs.get(block_number, 0) | (1 << counter)
