"""Unit tests for the discrete-event engine."""

import tracemalloc
import weakref

import pytest

from repro.simulation import SimulationError


def test_starts_at_time_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_single_event(sim):
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_scheduling_order(sim):
    order = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock_at_boundary(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0


def test_run_until_resumes_where_left_off(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    sim.run(until=10.0)
    assert fired == [1, 5]
    assert sim.now == 10.0


def test_event_at_exact_until_boundary_fires(sim):
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_nested_scheduling_from_callback(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, order.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_zero_delay_event_fires_at_current_time(sim):
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_and_inf_times_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


def test_events_executed_counter(sim):
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_max_events_guard(sim):
    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    # The counts are exact after the raise and the simulator runs on.
    assert (sim.now, sim.events_executed, sim.pending_events) == (100.0, 100, 1)
    sim.run(until=102.0)
    assert sim.events_executed == 102


def test_not_reentrant(sim):
    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_with_no_events_advances_clock(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_callback_args_passed_through(sim):
    received = []
    sim.schedule(1.0, lambda a, b, c: received.append((a, b, c)), 1, "two", 3.0)
    sim.run()
    assert received == [(1, "two", 3.0)]


def test_many_events_keep_global_order(sim):
    order = []
    delays = [5.0, 1.0, 3.0, 2.0, 4.0, 1.0, 2.0]
    for index, delay in enumerate(delays):
        sim.schedule(delay, order.append, (delay, index))
    sim.run()
    assert order == sorted(order, key=lambda item: (item[0], item[1]))


# ----- fast-path internals: entry layout, O(1) counting ------------------


def test_pending_events_counter_is_live(sim):
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.pending_events == 10
    sim.run(until=6.5)
    # Events at t=1..6 fired, 7..10 still queued.
    assert sim.pending_events == 4 == len(sim._heap)


def test_schedule_call_fast_path_executes_in_order(sim):
    order = []
    sim.schedule_call(2.0, order.append, ("b",))
    sim.schedule_call(1.0, order.append, ("a",))
    sim.schedule(1.5, order.append, "mid")
    sim.run()
    assert order == ["a", "mid", "b"]


def test_schedule_call_rejects_past_and_nan(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_call(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_call(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_call(float("inf"), lambda: None)


def test_handle_free_entries_are_four_tuples(sim):
    sim.schedule_call(1.0, print, ("a",))
    assert sim.schedule(2.0, print, "b") is None
    assert sim.schedule_at(3.0, print, "c") is None
    assert sorted(sim._heap) == [
        (1.0, 0, print, ("a",)),
        (2.0, 1, print, ("b",)),
        (3.0, 2, print, ("c",)),
    ]


class _Payload:
    """A weakly referenceable callback argument."""


def test_a_fired_event_holds_no_reference_to_its_arguments(sim):
    payload = _Payload()
    ref = weakref.ref(payload)
    sim.schedule(1.0, lambda payload: None, payload)
    del payload
    sim.run()
    assert ref() is None
    assert sim._heap == []


def test_a_pending_fast_path_event_is_one_small_tuple(sim):
    """10,000 pending ``schedule_call`` events cost at most 145 traced
    bytes each: the 4-tuple, its time and the heap slot. Measured 121-136
    (a pooled 5-slot list entry cost 159)."""
    n = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            sim.schedule_call(1.0 + i, print)
        per_event = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert sim.pending_events == n
    assert per_event <= 145


def test_peak_heap_size_tracks_maximum(sim):
    assert sim.peak_heap_size == 0
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.peak_heap_size == 7
    sim.run()
    assert sim.peak_heap_size == 7


def test_events_executed_counts_across_runs(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.0)
    assert sim.events_executed == 2
    sim.run()
    assert sim.events_executed == 5


# ----- a scheduled event is final -----------------------------------------


def test_pending_events_is_exact_inside_a_callback(sim):
    """Every queued entry is live, so the count is the heap's length even
    while the loop runs a callback."""
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.pending_events))
    sim.schedule(2.0, lambda: None)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert seen == [2]


def test_an_event_scheduled_past_until_stays_queued_as_four_slots(sim):
    sim.schedule(1.0, lambda: sim.schedule(5.0, print, "late"))
    sim.run(until=3.0)
    assert sim._heap == [(6.0, 1, print, ("late",))]
    assert sim.pending_events == 1


def test_a_rejected_schedule_queues_nothing_and_draws_no_seq(sim):
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), print)
    with pytest.raises(SimulationError):
        sim.schedule_delivery(-1.0, print, "src", "message", "target")
    sim.schedule(1.0, print, "x")
    assert sim._heap == [(1.0, 0, print, ("x",))]


def test_entries_of_every_shape_run_in_time_then_seq_order(sim):
    calls = []

    def record(*args):
        calls.append((sim.now, args))

    sim.schedule_delivery(1.0, record, "src", "a", "target")
    sim.schedule_call(1.0, record, ("b",))
    sim.schedule_delivery(1.0, record, "src", "c", "target", 0.25)
    sim.schedule_at(0.5, record, "first")
    assert sorted(len(entry) for entry in sim._heap) == [4, 4, 6, 7]
    sim.run()
    assert calls == [
        (0.5, ("first",)),
        (1.0, ("src", "a", "target")),
        (1.0, ("b",)),
        (1.0, ("src", "c", "target", 0.25)),
    ]


def test_deliveries_count_toward_pending_events_and_peak_heap_size(sim):
    sim.schedule_delivery(1.0, print, "src", "a", "target")
    sim.schedule_delivery(2.0, print, "src", "b", "target", 0.5)
    sim.schedule(3.0, print)
    assert sim.pending_events == 3 == sim.peak_heap_size
    sim.run(until=1.5)
    assert sim.pending_events == 2 and sim.peak_heap_size == 3


def test_a_raising_callback_is_consumed_and_the_run_resumes(sim):
    """The loop pops an entry before calling it: an exception leaves that
    event spent, the rest queued and the counts exact."""
    fired = []

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    sim.schedule(2.0, fired.append, "after")
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert (sim.now, sim.events_executed, sim.pending_events) == (1.0, 1, 1)
    sim.run()
    assert fired == ["after"] and sim.events_executed == 2

