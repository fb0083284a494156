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
  arrival, and requests received meanwhile are served on arrival. This
  also guarantees digest receivers can always obtain the block from the
  digest's sender.

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
probability guarantee. An optional buffer is kept here for the ablation.

The pairs a peer has seen are kept for the whole run — forgetting one would
re-forward a late digest of it — as one int per block: a bitmask with bit
``k`` set once ``(block, k)`` was seen. Counters stop at the TTL (tens at
most), so a block's mask is one small int and one dict slot, not a heap
int and a set slot per pair.
"""

from __future__ import annotations

from collections import defaultdict
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
        t_push: optional buffer timer; the paper's protocol uses 0.
        on_forward: instrumentation hook ``(block_number, counter, targets)``.
        request_timeout: base per-request timeout before retrying against
            a different digest holder; ``0`` disables the retry ladder.
        request_retries: retries per block before the in-flight slot is
            released (abandoned requests fall back to later digests or
            the recovery component).
        retry_backoff: multiplicative timeout growth per attempt.
    """

    REQUEST_RETRY_TIMEOUT = 0.5  # default base timeout of the retry ladder
    STREAM = "iuc-push-targets"

    # One instance per peer, ~30 attributes: past CPython's 30-key limit
    # for key-sharing instance dicts each one would carry a private
    # 1.5 KB ``__dict__``. Slots keep it a fixed table.
    __slots__ = (
        "host",
        "view",
        "fout",
        "ttl",
        "ttl_direct",
        "use_digests",
        "t_push",
        "request_timeout",
        "request_retries",
        "retry_backoff",
        "_rng",
        "_multicast",
        "_get_block",
        "_on_forward",
        "_seen_pairs",
        "_inflight_requests",
        "_digest_holders",
        "_pending_pairs",
        "_pending_serves",
        "_buffer",
        "_flush_pending",
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
        t_push: float = 0.0,
        on_forward: Optional[Callable[[int, int, List[str]], None]] = None,
        request_timeout: float = REQUEST_RETRY_TIMEOUT,
        request_retries: int = 2,
        retry_backoff: float = 2.0,
    ) -> None:
        self.host = host
        self.view = view
        self.fout = fout
        self.ttl = ttl
        self.ttl_direct = ttl_direct
        self.use_digests = use_digests
        self.t_push = t_push
        self.request_timeout = request_timeout
        self.request_retries = request_retries
        self.retry_backoff = retry_backoff
        self._rng = None  # bound by first_draw
        self._multicast = host.multicast
        # get_block runs once per digest reception — the dominant message
        # class at scale — so the host hop is resolved once here.
        self._get_block = host.get_block
        self._on_forward = on_forward
        # block number -> bitmask of the counters seen with it.
        self._seen_pairs: Dict[int, int] = {}
        # Blocks with an outstanding PushRequest: block number -> retry state.
        self._inflight_requests: Dict[int, _InflightRequest] = {}
        # Peers that advertised a block we do not hold yet, in digest
        # arrival order (deduplicated) — the deterministic retry rotation.
        self._digest_holders: Dict[int, List[str]] = {}
        # Pairs learned via digest while the block transfer is pending:
        # block number -> counters to forward once the block arrives.
        self._pending_pairs: Dict[int, List[int]] = defaultdict(list)
        # Requests received while we do not have the block yet:
        # block number -> [(requester, counter)].
        self._pending_serves: Dict[int, List[Tuple[str, int]]] = defaultdict(list)
        # Buffered pairs awaiting a t_push flush (ablation mode only).
        self._buffer: List[Tuple[Block, int]] = []
        self._flush_pending = False
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

        Returns True if the pair was new. Forwards the new pair, flushes
        pairs queued while this block's transfer was in flight, and serves
        peers whose requests arrived before we held the block.
        """
        number = block.number
        state = self._inflight_requests.pop(number, None)
        if state is not None and state.attempts > 0:
            # The block arrived after at least one retry re-targeted the
            # request: a stall the ladder resolved without recovery.
            self.stalls_rescued_by_retry += 1
        self._digest_holders.pop(number, None)
        seen = self._seen_pairs.get(number, 0)
        bit = 1 << counter
        is_new = not seen & bit
        if is_new:
            self._seen_pairs[number] = seen | bit
            self.pairs_received += 1
            self._forward(block, counter)
        if number in self._pending_pairs:
            # Queued counters were marked seen when the digest arrived but
            # never forwarded; a counter can never be both queued and newly
            # forwarded above, so every queued pair forwards exactly once.
            for queued_counter in self._pending_pairs.pop(number):
                self._forward(block, queued_counter)
        if number in self._pending_serves:
            for requester, requested_counter in self._pending_serves.pop(number):
                self.host.send(requester, BlockPush(block, counter=requested_counter, requested=True))
                self.full_pushes_sent += 1
        return is_new

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
        holders = self._digest_holders.get(number)
        if holders is None:
            holders = self._digest_holders[number] = []
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
            self._pending_pairs[number].append(counter)

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
        state = self._inflight_requests.get(number)
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
        block = self.host.get_block(message.block_number)
        if block is None:
            # We advertised the pair but are still waiting for the block
            # ourselves (possible only in pathological interleavings);
            # serve as soon as it lands rather than dropping the request.
            self._pending_serves[message.block_number].append((src, message.counter))
            return
        self.host.send(src, BlockPush(block, counter=message.counter, requested=True))
        self.full_pushes_sent += 1

    # ----- forwarding ------------------------------------------------------

    def _forward(self, block: Block, received_counter: int) -> None:
        next_counter = received_counter + 1
        if next_counter > self.ttl:
            return
        if self.t_push > 0:
            self._buffer.append((block, received_counter))
            if not self._flush_pending:
                self._flush_pending = True
                self.host.after(self.t_push, self._flush)
            return
        # Inline of the former _send_pair: sample + transmit without an
        # extra frame on the per-pair hot path.
        self._transmit(
            block, next_counter, self.view.sample_org(self._rng or first_draw(self), self.fout)
        )

    def _flush(self) -> None:
        """Ablation mode: Fabric-style buffered flush.

        All buffered pairs are sent to a *single* target sample — the
        biased behaviour the paper eliminates with ``t_push = 0``.
        """
        self._flush_pending = False
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        targets = self.view.sample_org(self._rng or first_draw(self), self.fout)
        for block, received_counter in batch:
            self._transmit(block, received_counter + 1, targets)

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
        if self._on_forward is not None:
            self._on_forward(block.number, counter, targets)

    # ----- bookkeeping ----------------------------------------------------

    def mark_seen(self, block_number: int, counter: int) -> None:
        """Record the pair as seen without forwarding (leader initiation)."""
        self._seen_pairs[block_number] = self._seen_pairs.get(block_number, 0) | (1 << counter)
