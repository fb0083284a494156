"""Property tests: the engine core replays bit-for-bit, and correctly.

The determinism contract of :mod:`repro.simulation._core` is *bit-for-bit*
equality: for any schedule — self-stopping timer-wheel registrations,
deliveries, exact ``schedule_call`` ties — two runs execute the exact same
``(time, tag)`` callback sequence with identical clock, event counts and
heap instrumentation. A replay that is consistently wrong would pass that,
so the same programs (timers aside) also run on a sorted-list reference
engine and must produce its trace and counters. A scheduled event is
final: after every op the engine's heap holds only 4-, 6- or 7-slot
entries, and ``pending_events`` is its length. The traffic
monitor must survive merge and pickle (the shard-worker wire) unchanged,
and the latency kernels must reproduce the stdlib ``lognormvariate``
stream they inline.
"""

from __future__ import annotations

import pickle
import random
from types import MethodType

from hypothesis import example, given, settings, strategies as st

from repro.simulation._core.engine import Simulator
from repro.simulation._core.kernels import lan_sample
from repro.simulation._core.monitor import TrafficMonitor

# ---------------------------------------------------------------------------
# Random schedule programs
# ---------------------------------------------------------------------------

# Delays quantized to the wheel grid (tick = 1/20 s) so programs produce
# exact time ties and slot-aligned firings, the orders most sensitive to
# an implementation divergence.
_TICK = 0.05

_event_ops = (
    st.tuples(st.just("call"), st.integers(0, 40)),
    st.tuples(st.just("at"), st.integers(0, 40)),
    st.tuples(st.just("fast"), st.integers(0, 40)),
    # k same-time records through the handle-free path, as a barrier's
    # cross-shard injection makes them: exact ties, consecutive sequence
    # numbers.
    st.tuples(st.just("records"), st.integers(0, 40), st.integers(1, 6)),
    # A network delivery, one-phase (6 slots) or two-phase (7 slots).
    st.tuples(st.just("delivery"), st.integers(0, 40), st.booleans()),
    st.tuples(st.just("run"), st.integers(0, 40)),
)
# Recurring wheel timer: grid-multiple period, self-stops after a few
# ticks.
_timer_op = st.tuples(
    st.just("timer"),
    st.integers(1, 8),          # period in ticks
    st.integers(1, 3),          # stop after this many firings
)

programs = st.lists(st.one_of(*_event_ops, _timer_op), min_size=1, max_size=40)
event_programs = st.lists(st.one_of(*_event_ops), min_size=1, max_size=40)


class ReferenceSimulator:
    """The scheduling semantics with nothing clever: an unordered list of
    ``(time, seq, callback, args)``, scanned for its ``(time, seq)``
    minimum up to an inclusive ``until``. No heap, no batching."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_executed = 0
        self._seq = 0
        self._queue = []

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        self._queue.append((time, self._seq, callback, args))
        self._seq += 1

    def schedule_call(self, time, callback, args=()):
        self.schedule_at(time, callback, *args)

    def schedule_delivery(self, time, callback, *args):
        self.schedule_at(time, callback, *args)

    def run(self, until):
        while self._queue:
            entry = min(self._queue, key=lambda entry: (entry[0], entry[1]))
            if entry[0] > until:
                break
            self._queue.remove(entry)
            self.now = entry[0]
            self.events_executed += 1
            entry[2](*entry[3])
        self.now = max(self.now, until)
        return self.now


def _assert_every_entry_is_live(sim):
    assert sim.pending_events == len(sim._heap)
    assert all(len(entry) in (4, 5, 6, 7) for entry in sim._heap)


def run_program(program, sim):
    """Execute one program on ``sim``; return the observable state.

    The trace records ``(now, tag)`` at every callback execution — the
    exact quantity the determinism contract pins — plus the monitor fed
    from inside the callbacks and the engine's counters after every op.
    """
    monitor = TrafficMonitor()
    trace = []
    counters = []
    tag_box = [0]

    def fire(tag):
        trace.append((sim.now, tag))
        monitor.record(sim.now, f"n{tag % 5}", f"n{(tag + 1) % 5}", "k", tag % 7)

    def fire_record(time, tag):
        trace.append((sim.now, tag))

    def deliver(src, tag, target, transfer=None):
        trace.append((sim.now, tag))

    def next_tag():
        tag_box[0] += 1
        return tag_box[0]

    for op in program:
        kind = op[0]
        if kind == "call":
            sim.schedule(op[1] * _TICK, fire, next_tag())
        elif kind == "at":
            sim.schedule_at(sim.now + op[1] * _TICK, fire, next_tag())
        elif kind == "fast":
            sim.schedule_call(sim.now + op[1] * _TICK, fire, (next_tag(),))
        elif kind == "records":
            time = sim.now + op[1] * _TICK
            for _ in range(op[2]):
                sim.schedule_call(time, fire_record, (time, next_tag()))
        elif kind == "delivery":
            args = ("src", next_tag(), "dst", 0.5) if op[2] else ("src", next_tag(), "dst")
            sim.schedule_delivery(sim.now + op[1] * _TICK, deliver, *args)
        elif kind == "timer":
            period, stop_after = op[1] * _TICK, op[2]
            tag = next_tag()
            holder = []

            def tick(tag=tag, stop_after=stop_after, holder=holder):
                timer = holder[0]
                trace.append((sim.now, tag))
                if timer.ticks >= stop_after:
                    timer.stop()

            holder.append(sim.wheel.every(period, tick))
        elif kind == "run":
            sim.run(until=sim.now + op[1] * _TICK)
        counters.append((sim.now, sim.events_executed, sim.pending_events))
        if isinstance(sim, Simulator):
            _assert_every_entry_is_live(sim)
    sim.run(until=sim.now + 60.0)
    return {
        "trace": trace,
        "counters": counters,
        "now": sim.now,
        "events_executed": sim.events_executed,
        "pending": sim.pending_events,
        "totals": (
            monitor.totals.messages,
            monitor.totals.bytes,
            monitor.totals.by_kind_messages,
            monitor.totals.by_kind_bytes,
        ),
        "nodes": monitor.nodes(),
        "series": {n: monitor.series(n) for n in monitor.nodes()},
    }


@given(programs)
@settings(max_examples=60, deadline=None)
def test_replay_is_deterministic(program):
    """The same program run twice is bit-identical."""
    first, second = Simulator(), Simulator()
    assert run_program(program, first) == run_program(program, second)
    assert first.peak_heap_size == second.peak_heap_size


@given(event_programs)
@settings(max_examples=60, deadline=None)
# Events at exactly a run's ``until`` fire in that run; random programs
# rarely land on the bound.
@example([("fast", 3), ("run", 3)])
@example([("call", 3), ("at", 3), ("delivery", 3, True), ("run", 3)])
def test_engine_matches_the_sorted_list_reference(program):
    """The heap engine executes what the reference does: the same ``(now,
    tag)`` trace, ``events_executed``, ``pending_events`` and final clock."""
    assert run_program(program, Simulator()) == run_program(program, ReferenceSimulator())


# ---------------------------------------------------------------------------
# Monitor merge and wire format
# ---------------------------------------------------------------------------


def _feed(monitor, seed):
    rng = random.Random(seed)
    for _ in range(rng.randint(5, 40)):
        t = rng.random() * 50
        if rng.random() < 0.5:
            monitor.record(t, f"n{rng.randint(0, 4)}", f"n{rng.randint(0, 4)}",
                           rng.choice("abc"), rng.randint(0, 300))
        else:
            dsts = [f"n{rng.randint(0, 4)}" for _ in range(rng.randint(1, 6))]
            monitor.record_multicast(t, f"n{rng.randint(0, 4)}", dsts,
                                     rng.choice("abc"), rng.randint(0, 300))
    return monitor


def _monitor_view(monitor):
    totals = monitor.totals
    return {
        "totals": (totals.messages, totals.bytes,
                   totals.by_kind_messages, totals.by_kind_bytes),
        "nodes": monitor.nodes(),
        "network_bytes": monitor.totals.bytes,
        "node_totals": {
            n: (monitor.node_totals(n).by_kind_messages,
                monitor.node_totals(n).by_kind_bytes)
            for n in monitor.nodes()
        },
        "series": {n: monitor.series(n) for n in monitor.nodes()},
    }


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_monitor_merge_survives_pickle(seed_a, seed_b):
    """A merged monitor crosses pickle (the shard-worker wire) unchanged."""
    a = _feed(TrafficMonitor(), seed_a)
    b = _feed(TrafficMonitor(), seed_b)
    a.merge_from(b)
    roundtrip = pickle.loads(pickle.dumps(a))
    assert _monitor_view(roundtrip) == _monitor_view(a)


# ---------------------------------------------------------------------------
# Latency kernels vs the stdlib
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_latency_kernel_matches_stdlib(seed):
    """The kernel reproduces ``base + lognormvariate`` bit-for-bit and
    consumes the RNG in the same order."""
    base, mu, sigma = 0.001, -1.5, 0.6

    reference_rng = random.Random(seed)
    reference = [base + reference_rng.lognormvariate(mu, sigma) for _ in range(32)]

    rng = random.Random(seed)
    sample = MethodType(lan_sample, (rng.random, base, mu, sigma))
    assert [sample("a", "b") for _ in range(32)] == reference
    assert rng.getstate() == reference_rng.getstate()
