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
give the mutated view a private array with its ``sample_org`` /
``sample_channel`` rebound to it — so every future draw *of that view*
sees the new membership (gossip modules look the samplers up on the view
at each draw) and no other view does. Order is part of the contract, since
it decides which peer a given random draw names: a runtime joiner is
appended after every build-time member of an incumbent's view, while the
held-out joiner's own view — which the controller never touches — keeps
build order.

Sharding contract (docs/sharding.md): membership flips (view mutations,
disconnect flags, the ``departed`` marker) are **global simulation state**
and run on every shard at the same scheduled instant — they draw no
randomness and mutate no RNG stream, so replicated execution keeps shards
identical. Peer *lifecycle* (arming timers at join, shutdown at leave) is
execution and runs only on the owner shard, exactly like crash handling.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence


class ChurnController:
    """Compiles join/leave waves onto a built deployment.

    Args:
        net: the freshly built :class:`~repro.experiments.builders.
            FabricNetwork`.
        owned: the node names this process executes (sharded mode);
            ``None`` means single-process (owns everything).
    """

    def __init__(self, net, owned: Optional[FrozenSet[str]] = None) -> None:
        self.net = net
        self.owned = owned
        self.peers_joined = 0
        self.peers_departed = 0
        self._org_of: Dict[str, str] = {
            name: org
            for org, members in net.org_members.items()
            for name in members
        }

    def _owns(self, name: str) -> bool:
        return self.owned is None or name in self.owned

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
            peer = net.peers[name]
            peer.defer_start = True
            net.network.set_disconnected(name, True)
        for peer in net.peers.values():
            if peer.name in joining:
                continue
            for name in names:
                peer.view.discard_member(name)

    def _join(self, names: List[str]) -> None:
        net = self.net
        for name in names:
            org = self._org_of[name]
            for peer in net.peers.values():
                if peer.name == name or peer.departed:
                    continue
                peer.view.add_member(name, same_org=self._org_of[peer.name] == org)
            net.network.set_disconnected(name, False)
            peer = net.peers[name]
            peer.defer_start = False
            if self._owns(name):
                peer.start()
            self.peers_joined += 1

    # ----- departures ---------------------------------------------------

    def schedule_leave(self, at: float, names: Sequence[str]) -> None:
        """Remove ``names`` from the membership for good at ``at``."""
        self.net.sim.schedule_at(at, self._leave, list(names))

    def _leave(self, names: List[str]) -> None:
        net = self.net
        # A peer an earlier wave already removed has nothing left to leave.
        names = [name for name in names if not net.peers[name].departed]
        departing = set(names)
        for peer in net.peers.values():
            if peer.name in departing:
                continue
            for name in names:
                peer.view.discard_member(name)
        for name in names:
            peer = net.peers[name]
            peer.departed = True
            if self._owns(name):
                peer.shutdown()
            net.network.set_disconnected(name, True)
            self.peers_departed += 1
