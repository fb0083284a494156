"""Unit tests for the discrete-event engine."""

import tracemalloc
import weakref

import pytest

from repro.simulation import SimulationError, Simulator


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


def test_cancelled_event_does_not_fire(sim):
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert handle.cancelled


def test_handle_states(sim):
    handle = sim.schedule(1.0, lambda: None)
    assert handle.pending
    sim.run()
    assert handle.executed
    assert not handle.pending


def test_events_executed_counter(sim):
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_pending_events_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    assert keep.pending


def test_max_events_guard(sim):
    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_reset_clears_state(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    sim.schedule(5.0, lambda: None)
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    fired = []
    sim.schedule(1.0, fired.append, "post-reset")
    sim.run()
    assert fired == ["post-reset"]


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


# ----- fast-path internals: entry layout, O(1) counting, compaction --------


def test_pending_events_counter_is_live(sim):
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sim.pending_events == 6
    sim.run(until=6.5)
    # Events at t=5 and t=6 fired (1-4 cancelled), 7..10 still queued.
    assert sim.pending_events == 4


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
    handle = sim.schedule(2.0, print, "b")
    assert sorted(sim._heap) == [
        (1.0, 0, print, ("a",)),
        (2.0, 1, print, ("b",), handle),
    ]


class _Payload:
    """A weakly referenceable callback argument."""


def test_fired_or_cancelled_handle_holds_no_heap_entry(sim):
    """Neither handle keeps its entry (and with it the callback's
    arguments) alive once the entry has left the heap."""
    fired_payload, cancelled_payload = _Payload(), _Payload()
    fired_ref, cancelled_ref = weakref.ref(fired_payload), weakref.ref(cancelled_payload)
    fired = sim.schedule(1.0, lambda payload: None, fired_payload)
    cancelled = sim.schedule(2.0, lambda payload: None, cancelled_payload)
    del fired_payload, cancelled_payload
    cancelled.cancel()
    sim.run()
    assert fired.executed and cancelled.cancelled
    assert fired_ref() is None and cancelled_ref() is None
    assert sim._heap == []


def test_compaction_leaves_only_live_entries(sim):
    doomed = [sim.schedule(100.0 + i, lambda: None) for i in range(40)]
    kept = [sim.schedule(50.0 + i, lambda: None) for i in range(5)]
    for i in range(5):
        sim.schedule_call(60.0 + i, lambda: None)
    for handle in doomed:
        handle.cancel()
    assert sim._stale == 40  # below the threshold: still lazy
    sim._compact()
    assert sim._stale == 0
    assert len(sim._heap) == sim.pending_events == 10
    assert all(len(entry) == 4 or entry[4].pending for entry in sim._heap)
    assert {entry[4] for entry in sim._heap if len(entry) == 5} == set(kept)
    sim.run()
    assert all(handle.executed for handle in kept)
    assert sim.events_executed == 10


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


def test_mass_cancellation_compacts_heap(sim):
    handles = [sim.schedule(1000.0 + i, lambda: None) for i in range(200)]
    keep = sim.schedule(0.5, lambda: None)
    for handle in handles:
        handle.cancel()
    # Far more than half the heap was cancelled: compaction must have
    # dropped the dead entries without waiting for their scheduled times.
    assert len(sim._heap) < 50
    assert sim.pending_events == 1
    assert keep.pending
    sim.run()
    assert keep.executed


def test_cancelled_handle_states_survive_pool_reuse(sim):
    cancelled = sim.schedule(1.0, lambda: None)
    cancelled.cancel()
    executed = sim.schedule(2.0, lambda: None)
    sim.run()
    # Many later events; old handles must not change.
    for i in range(20):
        sim.schedule_call(sim.now + i + 1.0, lambda: None)
    sim.run()
    assert cancelled.cancelled and not cancelled.executed and not cancelled.pending
    assert executed.executed and not executed.cancelled and not executed.pending


def test_cancel_after_execution_is_noop(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()
    assert handle.executed
    assert not handle.cancelled


def test_peak_heap_size_tracks_maximum(sim):
    assert sim.peak_heap_size == 0
    for i in range(7):
        sim.schedule(float(i + 1), lambda: None)
    assert sim.peak_heap_size == 7
    sim.run()
    assert sim.peak_heap_size == 7
    sim.reset()
    assert sim.peak_heap_size == 0


def test_events_executed_counts_across_runs(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(until=2.0)
    assert sim.events_executed == 2
    sim.run()
    assert sim.events_executed == 5


def test_crash_fault_mass_cancel_compacts_in_one_pass(sim):
    """A crash event cancelling >half the heap mid-run triggers exactly one
    compaction pass and leaves live accounting exact (the run loop must
    re-bind the swapped heap list and keep executing)."""
    from repro.simulation import _core as engine_module

    fired = []
    # Periodic-timer corpus: one far-future handle per "timer", as a crash
    # fault sees it (every component holds a pending tick).
    handles = [sim.schedule(10.0 + i * 0.01, fired.append, i) for i in range(300)]
    survivors = [sim.schedule(5.0 + i, fired.append, 1000 + i) for i in range(3)]

    passes = []
    original_compact = engine_module.Simulator._compact

    def counting_compact(self):
        passes.append(len(self._heap))
        original_compact(self)

    def crash():
        for handle in handles:
            handle.cancel()

    sim.schedule(1.0, crash)
    engine_module.Simulator._compact = counting_compact
    try:
        sim.run()
    finally:
        engine_module.Simulator._compact = original_compact

    # Compaction runs as whole-heap passes (not per-cancellation) and the
    # geometric trigger bounds the total work at O(heap): each pass halves
    # the heap, so the pass sizes sum to less than twice the original.
    assert 1 <= len(passes) <= 4
    assert sum(passes) <= 2 * 304
    assert sim._stale == 0  # stale counter fully consumed by the passes
    assert fired == [1000, 1001, 1002]  # survivors fired, corpses did not
    assert sim.pending_events == 0
    assert all(handle.cancelled and not handle.executed for handle in handles)
    assert all(handle.executed for handle in survivors)


def test_mass_cancel_pending_counts_stay_exact_through_compaction(sim):
    handles = [sim.schedule(100.0 + i, lambda: None) for i in range(150)]
    live = [sim.schedule(50.0 + i, lambda: None) for i in range(10)]
    assert sim.pending_events == 160
    for index, handle in enumerate(handles):
        handle.cancel()
        # Exact at every step, through the compaction threshold and after.
        assert sim.pending_events == 160 - (index + 1)
    assert sim.pending_events == len(live) == 10
    # Compaction dropped the mass-cancelled corpses; at most a sub-threshold
    # lazy tail (< _COMPACT_MIN_STALE) may still sit in the heap.
    assert len(sim._heap) - sim.pending_events == sim._stale < 64
    executed = sim.run()
    assert sim.pending_events == 0
    assert executed == 59.0


def test_small_cancellation_batches_stay_lazy(sim):
    """Below the compaction thresholds cancelled entries stay in the heap
    (lazy discard) — compaction is reserved for mass cancellation."""
    keep = [sim.schedule(10.0 + i, lambda: None) for i in range(200)]
    cancelled = [sim.schedule(20.0 + i, lambda: None) for i in range(30)]
    for handle in cancelled:
        handle.cancel()
    assert len(sim._heap) == 230  # corpses still queued, below threshold
    assert sim.pending_events == 200
    sim.run()
    assert all(handle.executed for handle in keep)

