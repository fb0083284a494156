"""Dissemination latency tracking.

The paper defines block dissemination latency from "the beginning of their
dissemination (i.e. their reception by the contact peer from the orderer
nodes)" (§V-B): time zero for a block is the moment the *leader peer*
receives it from the ordering service; every peer's latency is its first
reception of the block relative to that. The leader itself has latency 0.

Two aggregations feed the figures:

* **peer level** (Figs. 4/7/12): for each peer, the distribution of its
  latencies over all blocks; the paper plots the fastest / median / slowest
  peers ranked by average latency;
* **block level** (Figs. 5/8/13): for each block, the distribution of peer
  latencies; the paper plots the fastest / median / slowest blocks ranked
  by the time to reach all peers.

A run records one first reception per (peer, block) — 100,000 of them over
the paper's 1,000 blocks — so :class:`DisseminationTracker` keeps them as
bytes, not objects: one ``array('d')`` of absolute reception times per
block, indexed by a tracker-local peer column, NaN where the peer has not
received the block. A latency is computed when it is read, so a query about
one block reads one row and a report over every block is linear in the
receptions.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class LatencyStats:
    """Summary statistics of one latency sample set."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            raise ValueError("cannot summarize an empty sample set")
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
        )


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    # a + (b - a) * w is exact for a == b, unlike a*(1-w) + b*w.
    return ordered[low] + (ordered[high] - ordered[low]) * weight


# One "not received" cell; a row of n is ``_NOT_RECEIVED * n``.
_NOT_RECEIVED = array("d", [math.nan])


def _keep_earliest(times: Dict[int, float], block_number: int, time: float) -> None:
    known = times.get(block_number)
    if known is None or time < known:
        times[block_number] = time


class DisseminationTracker:
    """Records the first reception of every (peer, block) pair.

    Every recording hook keeps the earliest time it was given for its key
    (simulated time never goes back, so within one process that is the
    first) and :meth:`committed` the latest, so the recordings of several
    trackers merge in any order to those of one.
    """

    def __init__(self) -> None:
        # block number -> leader reception time (dissemination t0). Its
        # order — the order blocks got a t0 — is the order every per-block
        # query walks.
        self._t0: Dict[int, float] = {}
        self._cut_at: Dict[int, float] = {}
        # peer -> column of the reception rows, and the peers by column.
        self._columns: Dict[str, int] = {}
        self._peers: List[str] = []
        # block number -> absolute first-reception time by column, NaN
        # where not received; every row is as wide as ``_peers``.
        self._rows: Dict[int, array] = {}
        # block number -> latest commit of it at any peer.
        self._last_commit: Dict[int, float] = {}

    # ----- recording hooks (called by orderer / peers) -------------------

    def block_cut(self, block_number: int, time: float) -> None:
        _keep_earliest(self._cut_at, block_number, time)

    def leader_received(self, block_number: int, time: float) -> None:
        _keep_earliest(self._t0, block_number, time)

    def first_reception(self, peer: str, block_number: int, time: float) -> None:
        column = self._columns.get(peer)
        if column is None:
            column = self._add_column(peer)
        row = self._rows.get(block_number)
        if row is None:
            row = self._rows[block_number] = _NOT_RECEIVED * len(self._peers)
        if not row[column] <= time:  # not received yet (NaN), or later
            row[column] = time

    def committed(self, block_number: int, time: float) -> None:
        last = self._last_commit.get(block_number)
        if last is None or time > last:
            self._last_commit[block_number] = time

    def _add_column(self, peer: str) -> int:
        column = self._columns[peer] = len(self._peers)
        self._peers.append(peer)
        for row in self._rows.values():
            row.append(math.nan)
        return column

    def merge_from(self, other: "DisseminationTracker") -> None:
        """Fold another tracker's recordings into this one, by peer name.

        Used by the process-sharded executor: each shard records only its
        own peers' receptions and commits (and, on the leader/orderer
        shards, the t0 and cut instants), so the merged recordings equal
        the single-process run's exactly, and so does every statistic
        derived from them.
        """
        for number, t0 in other._t0.items():
            _keep_earliest(self._t0, number, t0)
        for number, cut in other._cut_at.items():
            _keep_earliest(self._cut_at, number, cut)
        for number, when in other._last_commit.items():
            self.committed(number, when)
        columns = [
            self._columns[peer] if peer in self._columns else self._add_column(peer)
            for peer in other._peers
        ]
        for number, theirs in other._rows.items():
            mine = self._rows.get(number)
            if mine is None:
                mine = self._rows[number] = _NOT_RECEIVED * len(self._peers)
            for column, when in zip(columns, theirs):
                # Their NaN (not received) never overwrites a time of ours.
                if when == when and not mine[column] <= when:
                    mine[column] = when

    # ----- queries ---------------------------------------------------------

    def blocks(self) -> List[int]:
        """The blocks with a t0, in number order."""
        return sorted(self._t0)

    def block_latencies(self, block_number: int) -> Dict[str, float]:
        """peer -> latency for one block (empty until the block has a t0)."""
        t0 = self._t0.get(block_number)
        row = self._rows.get(block_number)
        if t0 is None or row is None:
            return {}
        peers = self._peers
        return {
            peers[column]: max(0.0, when - t0)
            for column, when in enumerate(row)
            if when == when
        }

    def peer_latencies(self, peer: str) -> List[float]:
        """This peer's latency over all blocks it received."""
        column = self._columns.get(peer)
        if column is None:
            return []
        latencies = []
        for number, t0 in self._t0.items():
            row = self._rows.get(number)
            if row is not None and row[column] == row[column]:
                latencies.append(max(0.0, row[column] - t0))
        return latencies

    def received_blocks(self, peer: str) -> List[int]:
        """The blocks ``peer`` has a first reception of, in number order
        (with or without a t0)."""
        column = self._columns.get(peer)
        if column is None:
            return []
        return sorted(number for number, row in self._rows.items() if row[column] == row[column])

    def receivers(self) -> List[str]:
        """The peers with a first reception of any block, in the order of
        their first one."""
        return list(self._peers)

    def peers(self) -> List[str]:
        names = set()
        for number in self._t0:
            names.update(self.block_latencies(number))
        return sorted(names)

    def last_commit(self, block_number: int) -> Optional[float]:
        """The latest time any peer committed the block, if one did."""
        return self._last_commit.get(block_number)

    def orderer_to_leader_delay(self, block_number: int) -> Optional[float]:
        """Consensus-to-leader delay (not part of dissemination latency)."""
        t0 = self._t0.get(block_number)
        cut = self._cut_at.get(block_number)
        if t0 is None or cut is None:
            return None
        return t0 - cut

    # ----- the paper's aggregations --------------------------------------

    def peer_ranking(self) -> List[Tuple[str, float]]:
        """Peers sorted by average latency (fastest first)."""
        ranking = [
            (peer, sum(samples) / len(samples))
            for peer in self.peers()
            if (samples := self.peer_latencies(peer))
        ]
        ranking.sort(key=lambda item: item[1])
        return ranking

    def fastest_median_slowest_peers(self) -> Tuple[str, str, str]:
        """The three peers plotted in Figs. 4/7/12."""
        ranking = self.peer_ranking()
        if not ranking:
            raise ValueError("no latencies recorded")
        return ranking[0][0], ranking[len(ranking) // 2][0], ranking[-1][0]

    def block_ranking(self) -> List[Tuple[int, float]]:
        """Blocks sorted by their full-dissemination time (fastest first).

        A block's dissemination time is the maximum peer latency, i.e. the
        time for the block to reach every peer.
        """
        ranking = [
            (number, max(latencies.values()))
            for number in self._t0
            if (latencies := self.block_latencies(number))
        ]
        ranking.sort(key=lambda item: item[1])
        return ranking

    def fastest_median_slowest_blocks(self) -> Tuple[int, int, int]:
        """The three blocks plotted in Figs. 5/8/13."""
        ranking = self.block_ranking()
        if not ranking:
            raise ValueError("no latencies recorded")
        return ranking[0][0], ranking[len(ranking) // 2][0], ranking[-1][0]

    def all_latencies(self) -> List[float]:
        return [
            value for number in self._t0 for value in self.block_latencies(number).values()
        ]

    def coverage(self, expected_peers: int) -> Dict[int, int]:
        """block -> number of peers that received it (completeness check)."""
        return {number: len(self.block_latencies(number)) for number in self._t0}

    def summary(self) -> LatencyStats:
        return LatencyStats.from_samples(self.all_latencies())
