"""Membership view: who a peer may gossip with.

Fabric gossip operates on a complete graph within an organization — every
peer knows the identity of every other peer of its org (certified by the
MSP) — and block dissemination is, for trust reasons, restricted to peers of
the same organization. Recovery, by contrast, may consult peers of the whole
channel (paper §III-A).

Because every peer of an organization knows the *same* membership, the
views of a deployment share it: :func:`build_views` interns one
:class:`Membership` per organization and one for the channel, and each
:class:`OrganizationView` holds a reference to those two arrays plus its
owner's position in each (two references + two ints per peer, so set-up
is linear in the number of peers). A view draws its targets through two
methods over those pairs; it holds no per-view callable. Membership
arrays are immutable; churn is copy-on-write — the first ``add_member`` /
``discard_member`` on a view replaces *that view's* array with a private
one, so mutating one view never changes another's candidates.
"""

from __future__ import annotations

import random
import sys
from typing import AbstractSet, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.simulation.random import sample_skipping


class Membership:
    """An immutable, interned member array with a name -> position index.

    Interned names: every peer name flowing out of a view (gossip targets,
    monitor keys, handler lookups) compares by pointer first.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]) -> None:
        self.names: Tuple[str, ...] = tuple(map(sys.intern, names))
        self.index: Dict[str, int] = {name: at for at, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate names in a membership")


def _others(population: Tuple[str, ...], skip: int) -> List[str]:
    """A fresh list of ``population`` minus the item at ``skip``."""
    others = list(population)
    del others[skip : skip + 1]
    return others


def _discard(population: Tuple[str, ...], skip: int, name: str) -> Tuple[Tuple[str, ...], int]:
    """``population`` without ``name``, and where ``skip`` points afterwards."""
    try:
        at = population.index(name)
    except ValueError:
        return population, skip
    return population[:at] + population[at + 1 :], skip - (at < skip)


class OrganizationView:
    """The membership view handed to a peer's gossip module.

    Args:
        self_name: the owning peer.
        org_peers: all peers of the owning peer's organization (including
            the owner; it is excluded from sampling automatically). Pass
            the organization's shared :class:`Membership` to build many
            views over one array; a plain sequence gets a private one.
        channel_peers: all peers of the channel (any organization), same
            two forms.
        leader: the org's leader peer (receives blocks from orderers).
    """

    # One view per peer: slots keep it the six fields below.
    __slots__ = ("self_name", "leader", "_org", "_org_at", "_channel", "_channel_at")

    def __init__(
        self,
        self_name: str,
        org_peers: Union[Membership, Sequence[str]],
        channel_peers: Union[Membership, Sequence[str]],
        leader: str,
    ) -> None:
        org = org_peers if isinstance(org_peers, Membership) else Membership(org_peers)
        channel = (
            channel_peers if isinstance(channel_peers, Membership) else Membership(channel_peers)
        )
        at = org.index.get(self_name)
        if at is None:
            raise ValueError(f"{self_name!r} not part of its own organization view")
        leader_at = org.index.get(leader)
        if leader_at is None:
            raise ValueError(f"leader {leader!r} not part of the organization")
        self.self_name = org.names[at]
        self.leader = org.names[leader_at]
        self._org = org.names
        self._org_at = at
        self._channel = channel.names
        self._channel_at = channel.index.get(self_name, len(channel.names))

    # Target selection runs once per gossip fanout, so these two are among
    # the hottest calls in the simulator: one method frame over the view's
    # (member array, owner's position) pair, read at every draw (churn
    # replaces the pair).

    def sample_org(self, rng: random.Random, k: int) -> List[str]:
        """``k`` distinct random peers of the organization, excluding self."""
        return sample_skipping(self._org, self._org_at, rng, k)

    def sample_channel(self, rng: random.Random, k: int) -> List[str]:
        """``k`` distinct random peers of the channel, excluding self
        (recovery and background traffic are cross-org)."""
        return sample_skipping(self._channel, self._channel_at, rng, k)

    @property
    def org_size(self) -> int:
        """Number of peers in the organization (including self)."""
        return len(self._org)

    @property
    def org_members(self) -> Tuple[str, ...]:
        """Every peer of the organization, self included (no copy)."""
        return self._org

    @property
    def org_others(self) -> List[str]:
        """The other peers of the organization (gossip candidates)."""
        return _others(self._org, self._org_at)

    @property
    def channel_others(self) -> List[str]:
        """All other peers of the channel (recovery candidates)."""
        return _others(self._channel, self._channel_at)

    @property
    def is_leader(self) -> bool:
        return self.self_name == self.leader

    # ----- runtime membership (churn engine) ---------------------------

    def add_member(self, name: str, same_org: bool) -> None:
        """Admit ``name`` into this view's sampling populations.

        Idempotent. Copy-on-write: the view gets a private array with
        ``name`` appended (so a runtime joiner sits after every build-time
        member); views that still share the old array are unaffected.
        """
        name = sys.intern(name)
        if name == self.self_name:
            return
        if same_org and name not in self._org:
            self._org += (name,)
        if name not in self._channel:
            self._channel += (name,)

    def discard_member(self, name: str) -> None:
        """Remove ``name`` from this view's sampling populations.

        Idempotent; a no-op for names not present and for the owner (a
        view always contains its owner). Copy-on-write like
        :meth:`add_member`; the remaining members keep their order.
        Leaders are protected upstream (the churn engine refuses to churn
        a leader).
        """
        if name == self.self_name:
            return
        self._org, self._org_at = _discard(self._org, self._org_at, name)
        self._channel, self._channel_at = _discard(self._channel, self._channel_at, name)


def build_views(
    org_members: Dict[str, List[str]],
    leaders: Dict[str, str],
    owned: Optional[AbstractSet[str]] = None,
) -> Dict[str, OrganizationView]:
    """Construct the per-peer views for a multi-organization channel.

    Every organization's member list and the channel list are interned
    once and shared by all views over them.

    Args:
        org_members: organization name -> member peer names.
        leaders: organization name -> leader peer name.
        owned: when given, build views for these peers only (their
            memberships still list every member).

    Returns:
        peer name -> its :class:`OrganizationView`.
    """
    orgs = {org: Membership(members) for org, members in org_members.items()}
    channel = Membership(name for members in orgs.values() for name in members.names)
    return {
        name: OrganizationView(name, members, channel, leaders[org])
        for org, members in orgs.items()
        for name in members.names
        if owned is None or name in owned
    }
