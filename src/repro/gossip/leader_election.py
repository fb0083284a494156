"""Gossip-based leader election within an organization.

Fabric peers elect, per organization, the *leader peer* that receives new
blocks from the ordering service and initiates their dissemination (the
role at the root of both gossip modules). Fabric supports static leaders
and dynamic election; this module implements the dynamic variant as Fabric
does: the alive peer with the smallest identity is the leader, leadership
is asserted through periodic heartbeat declarations, and a peer claims
leadership when it has heard no heartbeat from a smaller-id alive peer for
an election timeout.

The orderer is rerouted through a :class:`LeaderRegistry` that tracks each
organization's current claim, so the block flow survives a leader crash
with a bounded interruption (one election timeout + one recovery round for
blocks ordered during the gap).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.gossip.base import bind_multicast
from repro.net.message import Message


class LeadershipHeartbeat(Message):
    """Periodic leadership declaration within the organization."""

    __slots__ = ("term",)

    def __init__(self, term: int) -> None:
        super().__init__()
        self.term = term

    def payload_size(self) -> int:
        return 64


class LeaderRegistry:
    """Tracks the current leader claim per organization.

    The ordering service consults this registry on every block send, so an
    election taking effect between two blocks reroutes the next block.
    """

    def __init__(self, initial: Optional[Dict[str, str]] = None) -> None:
        self._leaders: Dict[str, str] = dict(initial or {})
        self._listeners: List[Callable[[str, str], None]] = []

    def leader_of(self, org: str) -> Optional[str]:
        return self._leaders.get(org)

    def claim(self, org: str, peer: str) -> None:
        if self._leaders.get(org) != peer:
            self._leaders[org] = peer
            for listener in self._listeners:
                listener(org, peer)

    def subscribe(self, listener: Callable[[str, str], None]) -> None:
        """``listener(org, new_leader)`` fires on every change."""
        self._listeners.append(listener)

    def snapshot(self) -> Dict[str, str]:
        return dict(self._leaders)


class LeaderElection:
    """Smallest-alive-id election driven by heartbeats.

    Args:
        host: the gossip host (peer adapter).
        view: organization view (election is org-local).
        org: organization name, for registry claims.
        registry: shared :class:`LeaderRegistry`.
        heartbeat_period: leader declaration period.
        election_timeout: silence from better-ranked peers before claiming
            leadership; must exceed the heartbeat period.
    """

    def __init__(
        self,
        host,
        view,
        org: str,
        registry: LeaderRegistry,
        heartbeat_period: float = 1.0,
        election_timeout: float = 3.0,
    ) -> None:
        if election_timeout <= heartbeat_period:
            raise ValueError("election timeout must exceed the heartbeat period")
        self.host = host
        self.view = view
        self.org = org
        self.registry = registry
        self.heartbeat_period = heartbeat_period
        self.election_timeout = election_timeout
        self.is_leader = False
        self.term = 0
        # Last heartbeat time per better-ranked (smaller-id) peer.
        self._last_heard: Dict[str, float] = {}
        self.heartbeats_sent = 0
        self.elections_won = 0
        # Rank-staggered takeover: when the leader dies, every follower's
        # timeout would expire in the same round and all would claim at
        # once (the worst-ranked claim landing last at the registry). Each
        # peer therefore waits an extra heartbeat period per rank step, so
        # the best-ranked candidate claims first and its heartbeat
        # suppresses the rest.
        self._rank = len(self._better_ranked())
        self._multicast = bind_multicast(host)

    def _better_ranked(self) -> List[str]:
        own = self.host.name
        return [name for name in self.view.org_members if name < own]

    @property
    def _takeover_silence(self) -> float:
        return self.election_timeout + max(0, self._rank - 1) * self.heartbeat_period

    def start(self) -> None:
        """Arm heartbeat/election timers; claim immediately if smallest."""
        self.host.every(self.heartbeat_period, self._tick)
        if not self._better_ranked():
            self._become_leader()

    def _tick(self) -> None:
        if self.is_leader:
            self._broadcast_heartbeat()
            return
        if self.host.now < self._takeover_silence:
            return  # give the initial leader time to assert itself
        deadline = self.host.now - self._takeover_silence
        for candidate in self._better_ranked():
            if self._last_heard.get(candidate, -1.0) >= deadline:
                return  # a better-ranked peer is alive
        self._become_leader()

    def _become_leader(self) -> None:
        if not self.is_leader:
            self.is_leader = True
            self.term += 1
            self.elections_won += 1
            self.registry.claim(self.org, self.host.name)
        self._broadcast_heartbeat()

    def _broadcast_heartbeat(self) -> None:
        targets = self.view.org_others
        if targets:
            # One shared declaration across the org, one multicast event.
            self._multicast(targets, LeadershipHeartbeat(self.term))
            self.heartbeats_sent += len(targets)

    def on_heartbeat(self, src: str, message: LeadershipHeartbeat) -> None:
        """Process a leadership declaration from another peer."""
        self._last_heard[src] = self.host.now
        if src < self.host.name and self.is_leader:
            # A better-ranked peer asserts leadership: yield, and hand the
            # registry over in case our claim was the one that stuck.
            self.is_leader = False
            if self.registry.leader_of(self.org) == self.host.name:
                self.registry.claim(self.org, src)

    def handles(self, message: Message) -> bool:
        return isinstance(message, LeadershipHeartbeat)
