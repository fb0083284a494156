"""The dissemination tracker against a plain dict-of-dicts reference model.

The model keeps ``{block: {peer: time}}`` and one ``{block: time}`` per
other hook, applies the tracker's rules (earliest reception, t0 and cut;
latest commit) and answers every reader by a direct scan. Random programs
of receptions, leader t0s, cuts and commits — at arbitrary, unordered
times — are fed to one tracker or split across 2-3 trackers (pickled or
not) that are merged in order; every reader must agree with the model.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.latency import DisseminationTracker, LatencyStats

PEERS = ["p0", "p1", "p2", "p3", "p4", "ghost"]  # "ghost" never appears in a program
BLOCKS = range(6)  # block 5 never appears in a program


def _earliest(times, key, time):
    if key not in times or time < times[key]:
        times[key] = time


class Model:
    def __init__(self) -> None:
        self.t0 = {}
        self.cut = {}
        self.receptions = {}
        self.commits = {}

    def apply(self, op):
        hook, block, time, peer = op
        if hook == "t0":
            _earliest(self.t0, block, time)
        elif hook == "cut":
            _earliest(self.cut, block, time)
        elif hook == "rx":
            _earliest(self.receptions.setdefault(block, {}), peer, time)
        elif block not in self.commits or time > self.commits[block]:
            self.commits[block] = time

    def block_latencies(self, block):
        if block not in self.t0:
            return {}
        t0 = self.t0[block]
        return {
            peer: max(0.0, when - t0)
            for peer, when in self.receptions.get(block, {}).items()
        }

    def peer_latencies(self, peer):
        return [
            self.block_latencies(block)[peer]
            for block in self.t0
            if peer in self.block_latencies(block)
        ]

    def all_latencies(self):
        return [value for block in self.t0 for value in self.block_latencies(block).values()]

    def block_ranking(self):
        ranking = [
            (block, max(self.block_latencies(block).values()))
            for block in self.t0
            if self.block_latencies(block)
        ]
        return sorted(ranking, key=lambda item: item[1])


def record(tracker, op):
    hook, block, time, peer = op
    if hook == "t0":
        tracker.leader_received(block, time)
    elif hook == "cut":
        tracker.block_cut(block, time)
    elif hook == "rx":
        tracker.first_reception(peer, block, time)
    else:
        tracker.committed(block, time)


time = st.one_of(st.floats(0.0, 20.0, allow_nan=False), st.integers(0, 20).map(float))
ops = st.tuples(
    st.sampled_from(["t0", "cut", "rx", "rx", "rx", "commit"]),
    st.integers(0, 4),
    time,
    st.sampled_from(PEERS[:-1]),
)
# One op list per tracker; trackers after the first are merged into it in
# order, through a pickle round trip wherever asked.
programs = st.lists(
    st.tuples(st.lists(ops, max_size=40), st.booleans()), min_size=1, max_size=3
)


@given(programs)
@settings(max_examples=200, deadline=None)
def test_tracker_agrees_with_dict_model(program):
    model = Model()
    tracker = None
    for part_ops, through_pickle in program:
        part = DisseminationTracker()
        for op in part_ops:
            record(part, op)
            model.apply(op)
        if through_pickle:
            part = pickle.loads(pickle.dumps(part))
        if tracker is None:
            tracker = part
        else:
            tracker.merge_from(part)

    assert tracker.blocks() == sorted(model.t0)
    for block in BLOCKS:
        assert tracker.block_latencies(block) == model.block_latencies(block)
        assert tracker.last_commit(block) == model.commits.get(block)
        assert tracker.orderer_to_leader_delay(block) == (
            model.t0[block] - model.cut[block]
            if block in model.t0 and block in model.cut
            else None
        )
    for peer in PEERS:
        assert tracker.peer_latencies(peer) == model.peer_latencies(peer)
    peers = sorted({peer for block in model.t0 for peer in model.block_latencies(block)})
    assert tracker.peers() == peers
    assert tracker.coverage(len(PEERS)) == {
        block: len(model.block_latencies(block)) for block in model.t0
    }
    assert tracker.block_ranking() == model.block_ranking()
    assert tracker.peer_ranking() == sorted(
        (
            (peer, sum(samples) / len(samples))
            for peer in peers
            if (samples := model.peer_latencies(peer))
        ),
        key=lambda item: item[1],
    )
    samples = model.all_latencies()
    if samples:
        assert tracker.summary() == LatencyStats.from_samples(samples)
    else:
        with pytest.raises(ValueError):
            tracker.summary()
