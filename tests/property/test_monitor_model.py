"""The traffic monitor against a naive per-copy reference model.

The model keeps one ``(bin, src, dst, kind, size)`` row per copy and
answers every reader by scanning the rows. Random programs of ``record``,
``record_multicast``, ``merge_from`` and pickle round trips — unit and
non-unit bin widths, duplicate destinations, one far-future time — must
leave the monitor and the model in agreement on every public reader, for
every node, in all three directions.

The monitor folds the cells of a closed bin into per-node byte rows when
a later bin opens or a reader runs. The second half checks that the fold
is invisible: reads between records, records into bins already folded,
pickling with a bin open, and merges of folded with unfolded monitors.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation._core.monitor import TrafficMonitor, TrafficTotals

NODES = ["n0", "n1", "n2", "n3", "ghost"]  # "ghost" never appears in a program
FAR_FUTURE = 20_000.0  # beyond the dense tail at every bin width used here
BIN_WIDTHS = [1.0, 0.25, 2.5]


class Rows:
    """Reference: one row per copy, every reader a scan."""

    def __init__(self, bin_width: float) -> None:
        self.bin_width = bin_width
        self.rows = []
        self.last_time = 0.0

    def record(self, time, src, dst, kind, size):
        self.rows.append((math.floor(time / self.bin_width), src, dst, kind, size))
        self.last_time = max(self.last_time, time)

    def merge_from(self, other):
        self.rows.extend(other.rows)
        self.last_time = max(self.last_time, other.last_time)

    def totals(self, rows=None, prefix=None):
        totals = TrafficTotals()
        for _, _, _, kind, size in self.rows if rows is None else rows:
            totals.record(kind if prefix is None else prefix + kind, size)
        return totals

    def node_totals(self, node):
        sent = self.totals([row for row in self.rows if row[1] == node], "tx:")
        received = self.totals([row for row in self.rows if row[2] == node], "rx:")
        return TrafficTotals(
            sent.messages + received.messages,
            sent.bytes + received.bytes,
            {**sent.by_kind_messages, **received.by_kind_messages},
            {**sent.by_kind_bytes, **received.by_kind_bytes},
        )

    def nodes(self):
        return sorted({row[1] for row in self.rows} | {row[2] for row in self.rows})

    def series(self, node, direction, end_time):
        values = [0.0] * (int(end_time / self.bin_width) + 1)
        for index, src, dst, _, size in self.rows:
            if index < len(values):
                if direction != "rx" and src == node:
                    values[index] += size
                if direction != "tx" and dst == node:
                    values[index] += size
        return values


node = st.sampled_from(NODES[:-1])
time = st.one_of(
    st.floats(0.0, 40.0, allow_nan=False),
    st.integers(0, 40).map(float),  # exact bin boundaries
    st.just(FAR_FUTURE),
)
kind = st.sampled_from(["Block", "Digest", "Alive"])
size = st.sampled_from([0, 1, 296, 160_256])
sends = st.one_of(
    st.tuples(st.just("record"), time, node, node, kind, size),
    st.tuples(st.just("multicast"), time, node, st.lists(node, max_size=6), kind, size),
)
# A program is a list of per-monitor send lists; monitors after the first
# are merged into it in order, with a pickle round trip wherever asked.
programs = st.lists(
    st.tuples(st.lists(sends, max_size=25), st.booleans()), min_size=1, max_size=3
)


def feed(monitor, model, ops):
    for op in ops:
        if op[0] == "record":
            _, at, src, dst, message_kind, message_size = op
            monitor.record(at, src, dst, message_kind, message_size)
            model.record(at, src, dst, message_kind, message_size)
        else:
            _, at, src, dsts, message_kind, message_size = op
            monitor.record_multicast(at, src, dsts, message_kind, message_size)
            for dst in dsts:
                model.record(at, src, dst, message_kind, message_size)


@given(programs, st.sampled_from(BIN_WIDTHS))
@settings(max_examples=150, deadline=None)
def test_monitor_agrees_with_per_copy_model(program, bin_width):
    monitor = model = None
    for ops, through_pickle in program:
        part, part_model = TrafficMonitor(bin_width), Rows(bin_width)
        feed(part, part_model, ops)
        if through_pickle:
            part = pickle.loads(pickle.dumps(part))
        if monitor is None:
            monitor, model = part, part_model
        else:
            monitor.merge_from(part)
            model.merge_from(part_model)
            # The merged-in monitor stays usable and independent.
            assert part.totals == part_model.totals()
    if program[-1][1]:
        monitor = pickle.loads(pickle.dumps(monitor))
        feed(monitor, model, program[0][0])  # an unpickled monitor keeps recording
    assert_agrees(monitor, model, bin_width)


def assert_agrees(monitor, model, bin_width, far=True):
    """Every public reader of ``monitor`` equals ``model``'s answer; with
    ``far``, the far-future bin is read where it is too."""
    assert monitor.totals == model.totals()
    assert monitor.totals.bytes == model.totals().bytes
    assert monitor.last_time == model.last_time
    assert monitor.nodes() == model.nodes()
    end_time = 45.0  # past every near time; the far-future bin stays out of range
    for name in NODES:
        assert monitor.node_totals(name) == model.node_totals(name)
        for direction in ("tx", "rx", "both"):
            expected = model.series(name, direction, end_time)
            assert monitor.series(name, direction, end_time=end_time) == expected
            rates = monitor.rate_series(name, direction, end_time=end_time)
            assert rates == [value / bin_width for value in expected]
            assert monitor.average_rate(name, direction, 0.0, end_time) == sum(expected) / end_time
    if not far:
        return
    far_rows = [row for row in model.rows if row[0] == math.floor(FAR_FUTURE / bin_width)]
    for name in NODES:
        for direction, column in (("tx", 1), ("rx", 2)):
            expected = sum(row[4] for row in far_rows if row[column] == name)
            rate = monitor.average_rate(name, direction, FAR_FUTURE, FAR_FUTURE + bin_width)
            assert rate == expected / bin_width


# A step of a single monitor's life: a send, a full read (which folds), a
# pickle round trip (with whatever bin is open), or a merge of a fresh
# monitor fed its own sends, read (folded) before the merge or not.
steps = st.lists(
    st.one_of(
        sends,
        st.just(("read",)),
        st.just(("pickle",)),
        st.tuples(st.just("merge"), st.lists(sends, max_size=8), st.booleans()),
    ),
    max_size=30,
)


@given(steps, st.sampled_from(BIN_WIDTHS))
@settings(max_examples=150, deadline=None)
def test_reads_pickles_and_merges_between_records_are_invisible(program, bin_width):
    monitor, model = TrafficMonitor(bin_width), Rows(bin_width)
    for step in program:
        if step[0] == "read":
            assert_agrees(monitor, model, bin_width, far=False)
        elif step[0] == "pickle":
            monitor = pickle.loads(pickle.dumps(monitor))
        elif step[0] == "merge":
            _, ops, folded = step
            part, part_model = TrafficMonitor(bin_width), Rows(bin_width)
            feed(part, part_model, ops)
            if folded:
                part.nodes()
            monitor.merge_from(part)
            model.merge_from(part_model)
        else:
            feed(monitor, model, [step])
    assert_agrees(monitor, model, bin_width)


@pytest.mark.parametrize("bin_width", BIN_WIDTHS)
def test_a_record_into_a_folded_bin_is_counted(bin_width):
    """A later bin folds bin 0 and a read folds the later one; records
    into both afterwards land where a per-copy count puts them."""
    monitor, model = TrafficMonitor(bin_width), Rows(bin_width)
    ops = [
        ("multicast", 0.1, "n0", ["n1", "n2", "n1"], "Block", 160_256),
        ("record", 30.0, "n1", "n0", "Digest", 296),  # opens a later bin: bin 0 folds
    ]
    feed(monitor, model, ops)
    assert_agrees(monitor, model, bin_width)  # folds the later bin too
    feed(monitor, model, [
        ("multicast", 0.2, "n0", ["n1", "n3"], "Block", 160_256),  # bin 0 again
        ("record", 30.1, "n1", "n0", "Digest", 296),
        ("record", 0.0, "n3", "n1", "Alive", 1),  # a new flow in bin 0
    ])
    assert_agrees(monitor, model, bin_width)


@pytest.mark.parametrize("bin_width", BIN_WIDTHS)
def test_pickling_with_a_bin_open_keeps_its_cells(bin_width):
    """No reader has run, so the last bin's cells are still open when the
    monitor is pickled; the copy folds them and keeps recording."""
    monitor, model = TrafficMonitor(bin_width), Rows(bin_width)
    feed(monitor, model, [
        ("multicast", 3.0, "n0", ["n1", "n2"], "Digest", 296),
        ("multicast", 7.5, "n1", ["n0", "n2", "n3"], "Block", 160_256),
    ])
    copy, copy_model = pickle.loads(pickle.dumps(monitor)), Rows(bin_width)
    copy_model.merge_from(model)
    feed(copy, copy_model, [("record", 7.6, "n2", "n1", "Block", 160_256)])
    assert_agrees(copy, copy_model, bin_width)
    assert_agrees(monitor, model, bin_width)  # the original shares nothing with it


@pytest.mark.parametrize("bin_width", BIN_WIDTHS)
def test_merging_a_folded_and_an_unfolded_monitor_either_way(bin_width):
    def fed(ops, folded):
        monitor, model = TrafficMonitor(bin_width), Rows(bin_width)
        feed(monitor, model, ops)
        if folded:
            monitor.series("n0")
        return monitor, model

    first = [
        ("multicast", 1.5, "n0", ["n1", "n2"], "Block", 160_256),
        ("multicast", 12.0, "n2", ["n0", "n3"], "Digest", 296),
    ]
    second = [
        ("multicast", 1.2, "n1", ["n0", "n2"], "Block", 160_256),
        ("record", 12.5, "n3", "n2", "Digest", 296),
        ("record", FAR_FUTURE, "n3", "n0", "Alive", 1),
    ]
    for folded_first in (True, False):
        into, into_model = fed(first, folded_first)
        other, other_model = fed(second, not folded_first)
        into.merge_from(other)
        into_model.merge_from(other_model)
        assert_agrees(into, into_model, bin_width)
        assert_agrees(other, other_model, bin_width)  # the merged-in one is untouched
