"""Runtime membership churn: flash-crowd joins and mass departures.

The crash schedule (:class:`~repro.faults.injectors.CrashSchedule`) models
*temporary* failure — the peer stays in every view and recovers in place.
Churn is different: a joining peer is **not a member yet** (nobody samples
it, it runs no timers, its network endpoint is down) until its
``JoinEvent`` fires, and a departing peer leaves the membership for good —
it is removed from every view and excluded from completion predicates.

The mechanism rides the view layer's copy-on-write membership: every
:class:`~repro.gossip.view.OrganizationView` starts on its organization's
*shared* immutable member array, and ``add_member`` / ``discard_member``
give the mutated view a private array — so every future draw *of that
view* sees the new membership (``sample_org`` / ``sample_channel`` read
the view's array at each draw) and no other view does. Order is part of the contract, since
it decides which peer a given random draw names: a runtime joiner is
appended after every build-time member of an incumbent's view, while the
held-out joiner's own view — which the controller never touches — keeps
build order.

Sharding contract (docs/sharding.md): a shard's network holds only the
peers it executes, so a membership flip runs on every shard at the same
scheduled instant and touches what that shard holds — the views and the
lifecycle (timers armed at join, shutdown at leave) of its own peers —
plus the state every shard replicates: disconnect flags and the set of
departed names. None of it draws randomness or mutates an RNG stream, so
the shards stay identical to the single-process run.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


class ChurnController:
    """Compiles join/leave waves onto a built deployment.

    Args:
        net: the freshly built :class:`~repro.experiments.builders.
            FabricNetwork` (of one shard, or of the whole run).
    """

    def __init__(self, net) -> None:
        self.net = net
        self.peers_joined = 0
        # Every name that has left, whichever shard executes it.
        self.departed: Set[str] = set()
        self._org_of: Dict[str, str] = {
            name: org
            for org, members in net.org_members.items()
            for name in members
        }

    @property
    def peers_departed(self) -> int:
        return len(self.departed)

    # ----- joins --------------------------------------------------------

    def schedule_join(self, at: float, names: Sequence[str]) -> None:
        """Hold ``names`` out of the deployment now; admit them at ``at``."""
        names = list(names)
        self._hold_out(names)
        self.net.sim.schedule_at(at, self._join, names)

    def _hold_out(self, names: List[str]) -> None:
        net = self.net
        joining = set(names)
        for name in names:
            net.network.set_disconnected(name, True)
            if name in net.peers:
                net.peers[name].defer_start = True
        for peer in net.peers.values():
            if peer.name in joining:
                continue
            for name in names:
                peer.view.discard_member(name)

    def _join(self, names: List[str]) -> None:
        net = self.net
        departed = self.departed
        for name in names:
            org = self._org_of[name]
            for peer in net.peers.values():
                if peer.name == name or peer.name in departed:
                    continue
                peer.view.add_member(name, same_org=self._org_of[peer.name] == org)
            net.network.set_disconnected(name, False)
            peer = net.peers.get(name)
            if peer is not None:
                peer.defer_start = False
                peer.start()
            self.peers_joined += 1

    # ----- departures ---------------------------------------------------

    def schedule_leave(self, at: float, names: Sequence[str]) -> None:
        """Remove ``names`` from the membership for good at ``at``."""
        self.net.sim.schedule_at(at, self._leave, list(names))

    def _leave(self, names: List[str]) -> None:
        net = self.net
        # A peer an earlier wave already removed has nothing left to leave.
        names = [name for name in names if name not in self.departed]
        departing = set(names)
        self.departed |= departing
        for peer in net.peers.values():
            if peer.name in departing:
                continue
            for name in names:
                peer.view.discard_member(name)
        for name in names:
            peer = net.peers.get(name)
            if peer is not None:
                peer.departed = True
                peer.shutdown()
            net.network.set_disconnected(name, True)
