"""Traffic accounting (docs/performance.md, "Bytes per (node, bin)")."""

from __future__ import annotations

from array import array
from math import floor as _floor
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from collections import _count_elements  # type: ignore[attr-defined]

from repro.checks import require_finite

# A node's dense byte row only grows contiguously by at most this many
# bins at a time; larger jumps (idle gaps, stray far-future timers) go to
# the sparse overflow dict instead, so a single record at a huge timestamp
# cannot force an O(timestamp) allocation. Both directions share a row,
# hence the rule.
_MAX_DENSE_GROWTH = 4096

# One bin of a row: its tx and its rx slot, zero.
_ZERO_BIN = bytes(16)


class TrafficTotals:
    """Whole-run aggregate counters."""

    messages: int
    bytes: int
    by_kind_messages: Dict[str, int]
    by_kind_bytes: Dict[str, int]

    def __init__(
        self,
        messages: int = 0,
        bytes: int = 0,
        by_kind_messages: Optional[Dict[str, int]] = None,
        by_kind_bytes: Optional[Dict[str, int]] = None,
    ) -> None:
        self.messages = messages
        self.bytes = bytes
        self.by_kind_messages = {} if by_kind_messages is None else by_kind_messages
        self.by_kind_bytes = {} if by_kind_bytes is None else by_kind_bytes

    def record(self, kind: str, size: int, copies: int = 1) -> None:
        """Add ``copies`` messages of ``size`` bytes each under ``kind``."""
        self.messages += copies
        self.bytes += size * copies
        self.by_kind_messages[kind] = self.by_kind_messages.get(kind, 0) + copies
        self.by_kind_bytes[kind] = self.by_kind_bytes.get(kind, 0) + size * copies

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficTotals):
            return NotImplemented
        return (
            self.messages == other.messages
            and self.bytes == other.bytes
            and self.by_kind_messages == other.by_kind_messages
            and self.by_kind_bytes == other.by_kind_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TrafficTotals(messages={self.messages}, bytes={self.bytes}, "
            f"by_kind_messages={self.by_kind_messages}, "
            f"by_kind_bytes={self.by_kind_bytes})"
        )


def _add_counts(target: Dict[Any, int], source: Dict[Any, int]) -> None:
    """``target[key] += count`` for every item of ``source``."""
    for key, count in source.items():
        target[key] = target.get(key, 0) + count


class TrafficMonitor:
    """Online per-node, per-direction byte binning.

    Layout. Each node has one dense ``array('q')`` row of bytes per bin,
    both directions interleaved: slot ``2 * bin`` holds what it sent in
    the bin, slot ``2 * bin + 1`` what it received (one row, not one per
    direction: a second array per node cost a 3,000-node run of three bins
    0.3 MB). Bins a row cannot reach by growing :data:`_MAX_DENSE_GROWTH`
    bins go to a sparse ``{(node, slot): bytes}`` dict instead. A *flow*
    is one ``(kind, wire size)``; it holds the whole-run copy counts of
    its senders and of its receivers, ``{node: copies}`` each, and one
    *cell* per open bin, the receivers' ``{node: copies}`` of that bin.

    One send resolves its flow and cell, counts its destinations into the
    cell in one C-level pass, and adds to the sender's copy count and tx
    slot. The first send into a bin later than the open one *folds* every
    open cell into its receivers' rx slots and its flow's receiver counts
    and drops it, so cells live only while their bin is open. Every
    reader folds first, then reads rows and counts only. All counters are
    integer sums, so the fold is exact in any order and no reader can
    tell when it ran. Memory is O(nodes x bins + flows x receivers), not
    O(bins x flows x receivers).

    Args:
        bin_width: width of the accounting bins in seconds, finite and
            > 0. The paper aggregates at 10 s for plotting; we bin at 1 s
            by default and re-aggregate in :mod:`repro.metrics.bandwidth`,
            which preserves the ability to compute both fine- and
            coarse-grained series.
    """

    __slots__ = (
        "bin_width",
        "_unit_bins",
        "_flows",
        "_open",
        "_open_bin",
        "_rows",
        "_over",
        "_last_time",
    )

    bin_width: float
    _unit_bins: bool
    _flows: Dict[str, Dict[int, Tuple[Dict[str, int], Dict[str, int], Dict[int, Dict[str, int]]]]]
    _open: List[Tuple[int, Dict[str, int], Dict[int, Dict[str, int]]]]
    _open_bin: int
    _rows: Dict[str, "array[int]"]
    _over: Dict[Tuple[str, int], int]
    _last_time: float

    def __init__(self, bin_width: float = 1.0) -> None:
        self.bin_width = bin_width
        require_finite(self, "bin_width", positive=True)
        self._unit_bins = bin_width == 1.0  # skip the division on the default
        # kind -> size -> ({source: copies sent}, {receiver: copies in the
        # folded bins}, {open bin: {receiver: copies}}). Plain dicts rather
        # than Counters: ``collections._count_elements`` (the C helper
        # behind Counter.update) takes its exact-dict fast path.
        self._flows = {}
        # (size, receiver counts, cells) of every flow that opened a cell
        # since the last fold, and the latest bin a cell was opened in.
        self._open = []
        self._open_bin = -1
        # node -> interleaved tx/rx bytes per bin, dense; (node, slot) ->
        # bytes for the sparse far-future bins.
        self._rows = {}
        self._over = {}
        self._last_time = 0.0

    def record_multicast(
        self, time: float, src: str, dsts: Sequence[str], kind: str, size: int
    ) -> None:
        """Account one ``size``-byte message from ``src`` to each of ``dsts``.

        Byte-exact equivalent of accounting one copy per destination
        (duplicate destinations count once each): the receivers are
        counted by one C-level ``Counter.update`` pass, the sender gets
        ``len(dsts)`` copies and ``size * len(dsts)`` bytes, so the cost is
        independent of the fanout width. A negative or NaN ``time`` and a
        negative ``size`` raise ``ValueError`` and record nothing.
        """
        if not dsts:
            return
        # floor, not int(): a time in (-1, 0) must miss every cell.
        bin_index = _floor(time) if self._unit_bins else _floor(time / self.bin_width)
        try:
            sent, _, cells = self._flows[kind][size]
            cell = cells[bin_index]
        except KeyError:
            sent, cell = self._open_cell(kind, size, bin_index)
        _count_elements(cell, dsts)
        copies = len(dsts)
        sent[src] = sent.get(src, 0) + copies
        try:
            self._rows[src][2 * bin_index] += size * copies
        except (KeyError, IndexError):
            self._grow_or_spill(self._rows, self._over, src, 2 * bin_index, size * copies)
        if time > self._last_time:
            self._last_time = time

    def _open_cell(
        self, kind: str, size: int, bin_index: int
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """The flow's senders and a new cell for ``bin_index``. A bin later
        than the open one first folds the open cells and extends the rows.
        The only place a size or a bin enters the monitor, hence where both
        are checked: the per-send path pays nothing for it."""
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        if bin_index < 0:
            raise ValueError(f"cannot record traffic at a negative time (bin {bin_index})")
        if bin_index > self._open_bin:
            self._fold()
            self._open_bin = bin_index
            self._extend_rows(self._rows, bin_index + 1)
        sent, received, cells = self._flow(kind, size)
        self._open.append((size, received, cells))
        cell = cells[bin_index] = {}
        return sent, cell

    def _flow(
        self, kind: str, size: int
    ) -> Tuple[Dict[str, int], Dict[str, int], Dict[int, Dict[str, int]]]:
        """The flow's senders, receivers and open cells, created as needed."""
        return self._flows.setdefault(kind, {}).setdefault(size, ({}, {}, {}))

    def _counts(self) -> Iterator[Tuple[str, int, Dict[str, int], Dict[str, int]]]:
        """``(kind, size, {source: copies}, {receiver: copies})`` of every
        flow; the receivers' counts cover the folded bins only."""
        for kind, sizes in self._flows.items():
            for size, (sent, received, _) in sizes.items():
                yield kind, size, sent, received

    def _fold(self) -> None:
        """Add every open cell into its receivers' rx slots and its flow's
        receiver counts, and drop it."""
        rows, over = self._rows, self._over
        for size, received, cells in self._open:
            for index, cell in cells.items():
                slot = 2 * index + 1
                for node, copies in cell.items():
                    try:
                        rows[node][slot] += size * copies
                    except (KeyError, IndexError):
                        self._grow_or_spill(rows, over, node, slot, size * copies)
                    received[node] = received.get(node, 0) + copies
            cells.clear()  # a flow listed twice finds nothing the second time
        self._open.clear()

    @staticmethod
    def _grow_or_spill(
        rows: Dict[str, "array[int]"],
        over: Dict[Tuple[str, int], int],
        node: str,
        slot: int,
        value: int,
    ) -> None:
        """Add ``value`` to ``slot`` of ``node``'s row, which is missing or
        ends before it: grow the row to the slot's bin if that adds at most
        :data:`_MAX_DENSE_GROWTH` bins, else count into the sparse ``over``."""
        row = rows.get(node)
        if row is None:
            row = rows[node] = array("q")
        grow = (slot >> 1) + 1 - (len(row) >> 1)
        if grow <= _MAX_DENSE_GROWTH:
            row.frombytes(_ZERO_BIN * grow)
            row[slot] = value
        else:
            key = (node, slot)
            over[key] = over.get(key, 0) + value

    @staticmethod
    def _extend_rows(rows: Dict[str, "array[int]"], n_bins: int) -> None:
        """Append a zero bin to every row that ends one bin short of
        ``n_bins``: while bins open one after another, one pass per bin
        instead of one ``IndexError`` per (node, bin). A row further behind
        (a node silent since) waits for :meth:`_grow_or_spill`, so a gap in
        the bins grows only the rows of the nodes that speak after it."""
        short = 2 * (n_bins - 1)
        for row in rows.values():
            if len(row) == short:
                row.frombytes(_ZERO_BIN)

    @staticmethod
    def _add_rows(target: Dict[str, "array[int]"], source: Dict[str, "array[int]"]) -> None:
        """Add every row of ``source`` into ``target`` slot by slot, copying
        the rows ``target`` lacks."""
        for node, theirs in source.items():
            row = target.get(node)
            if row is None:
                target[node] = array("q", theirs)
                continue
            if len(theirs) > len(row):
                row.frombytes(bytes(row.itemsize * (len(theirs) - len(row))))
            for slot, value in enumerate(theirs):
                if value:
                    row[slot] += value

    def merge_from(self, other: "TrafficMonitor") -> None:
        """Fold another monitor's accounting into this one, exactly.

        Every counter is an integer, so the merge is associative and
        bit-exact: merging the per-shard monitors of a process-sharded run
        reproduces the single-process monitor as long as each message was
        recorded on exactly one shard (sends record on the sender's owner
        shard — see docs/sharding.md). ``other`` stays usable and shares
        nothing with this monitor.
        """
        if other.bin_width != self.bin_width:
            raise ValueError(
                "cannot merge monitors with different bin widths "
                f"({other.bin_width} vs {self.bin_width})"
            )
        self._fold()
        other._fold()
        for kind, size, their_sent, their_received in other._counts():
            sent, received, _ = self._flow(kind, size)
            _add_counts(sent, their_sent)
            _add_counts(received, their_received)
        self._add_rows(self._rows, other._rows)
        _add_counts(self._over, other._over)
        if other._last_time > self._last_time:
            self._last_time = other._last_time

    @property
    def totals(self) -> TrafficTotals:
        """Whole-run totals, materialized lazily from the senders' copy
        counts: every message is counted exactly once on its sender's
        side."""
        totals = TrafficTotals()
        for kind, size, sent, _ in self._counts():
            totals.record(kind, size, sum(sent.values()))
        return totals

    @property
    def last_time(self) -> float:
        """Time of the most recent recorded message."""
        return self._last_time

    def nodes(self) -> List[str]:
        """All node names that sent or received at least one message."""
        self._fold()
        return sorted(self._rows)

    def node_totals(self, node: str) -> TrafficTotals:
        """Whole-run totals for one node (kinds prefixed ``tx:``/``rx:``)."""
        self._fold()
        totals = TrafficTotals()
        for kind, size, sent, _ in self._counts():
            if node in sent:
                totals.record("tx:" + kind, size, sent[node])
        for kind, size, _, received in self._counts():
            if node in received:
                totals.record("rx:" + kind, size, received[node])
        return totals

    def series(
        self,
        node: str,
        direction: str = "both",
        end_time: Optional[float] = None,
    ) -> List[float]:
        """Bytes per bin for ``node``; index i covers [i*w, (i+1)*w).

        Args:
            node: node name.
            direction: ``"tx"``, ``"rx"`` or ``"both"`` (sum).
            end_time: pad the series with zero bins up to this time, so idle
                tails (paper Fig. 6's 1500-2000 s window) appear explicitly.
        """
        if direction not in ("tx", "rx", "both"):
            raise ValueError(f"unknown direction {direction!r}")
        self._fold()
        horizon = self._last_time if end_time is None else end_time
        n_bins = int(horizon / self.bin_width) + 1
        values = [0.0] * n_bins
        parities = {"tx": (0,), "rx": (1,), "both": (0, 1)}[direction]
        row = self._rows.get(node)
        if row is not None:
            for parity in parities:
                for index, value in enumerate(row[parity : 2 * n_bins : 2]):
                    values[index] += value
        for (name, slot), value in self._over.items():
            if name == node and slot & 1 in parities and slot >> 1 < n_bins:
                values[slot >> 1] += value
        return values

    def rate_series(
        self, node: str, direction: str = "both", end_time: Optional[float] = None
    ) -> List[float]:
        """Same as :meth:`series` but in bytes/second."""
        return [value / self.bin_width for value in self.series(node, direction, end_time)]

    def average_rate(
        self, node: str, direction: str = "both", start: float = 0.0, end: Optional[float] = None
    ) -> float:
        """Average bytes/second for ``node`` over ``[start, end]``."""
        series = self.series(node, direction, end_time=end)
        end = self._last_time if end is None else end
        if end <= start:
            return 0.0
        first = int(start / self.bin_width)
        last = int(end / self.bin_width)
        window = series[first : last + 1]
        return sum(window) / (end - start) if window else 0.0
