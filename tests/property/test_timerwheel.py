"""Property-based equivalence of the timer wheel and the naive heap path.

The contract the wheel must honour: for any schedule of recurring timers
whose phases and periods sit on the tick grid, the wheel fires exactly the
same (time, callback) sequence — multiset *and* ordering — as one naive
:class:`PeriodicTimer` per registration, including timers stopped
mid-run. Only the number of engine events may differ (that is the whole
point).

The strategies draw times in **dyadic ticks** (tick = 1/16 s, exactly
representable in binary) so the naive path's accumulated float sums are
exact and tie-breaking is not perturbed by float dust; stops land on
half-tick offsets so they never race a slot boundary.
A deliberately tiny ring (a few ticks) checks the wheel's one level at
its edge: every registration it can hold matches the naive path, and it
refuses every other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import SimulationError, Simulator, TimerWheel
from repro.simulation.timers import PeriodicTimer

TPS = 16
TICK = 1.0 / TPS
HORIZON_TICKS = 160  # 10 simulated seconds


# One timer: (period_ticks, delay_ticks or None, action).
# action: None or ("stop", at_ticks)
timer_specs = st.tuples(
    st.integers(min_value=1, max_value=48),
    st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
    st.one_of(
        st.none(),
        st.tuples(st.just("stop"), st.integers(min_value=1, max_value=HORIZON_TICKS)),
    ),
)


def _run_naive(specs):
    sim = Simulator()
    fired = []
    timers = []
    for index, (period_ticks, delay_ticks, _) in enumerate(specs):
        delay = None if delay_ticks is None else delay_ticks * TICK
        timers.append(
            PeriodicTimer(
                sim,
                period_ticks * TICK,
                (lambda i=index: fired.append((sim.now, i))),
                initial_delay=delay,
            )
        )
    _arm_actions(sim, timers, specs)
    sim.run(until=HORIZON_TICKS * TICK + TICK / 2)
    return fired, sim.events_executed


def _run_wheel(specs, ring_ticks):
    sim = Simulator()
    wheel = TimerWheel(sim, ticks_per_second=TPS, ring_ticks=ring_ticks)
    fired = []
    timers = []
    for index, (period_ticks, delay_ticks, _) in enumerate(specs):
        delay = None if delay_ticks is None else delay_ticks * TICK
        timers.append(
            wheel.every(
                period_ticks * TICK,
                (lambda i=index: fired.append((sim.now, i))),
                initial_delay=delay,
            )
        )
    _arm_actions(sim, timers, specs)
    sim.run(until=HORIZON_TICKS * TICK + TICK / 2)
    return fired, sim.events_executed


def _arm_actions(sim, timers, specs):
    # Half-tick offsets: an action never shares an instant with a firing,
    # so its ordering relative to same-tick slot/heap events is identical
    # on both paths by construction.
    for timer, (_, _, action) in zip(timers, specs):
        if action is not None:
            sim.schedule(action[1] * TICK + TICK / 2, timer.stop)


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(timer_specs, min_size=1, max_size=20))
def test_wheel_matches_naive_heap_exactly(specs):
    """Same (time, callback) multiset AND ordering, exact float times."""
    naive_fired, _ = _run_naive(specs)
    wheel_fired, _ = _run_wheel(specs, ring_ticks=512)
    assert wheel_fired == naive_fired


def _ring_holds(spec, ring_ticks):
    """The one-level rule: a period under the ring length, a first delay
    (one period when None) at least one tick under it."""
    period_ticks, delay_ticks, _ = spec
    first_ticks = period_ticks if delay_ticks is None else delay_ticks
    return period_ticks < ring_ticks and first_ticks <= ring_ticks - 1


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(timer_specs, min_size=1, max_size=12))
def test_a_small_ring_matches_the_naive_path_on_what_it_holds(specs):
    """An 8-tick ring holds the registrations that fit it, firing them as
    the naive path does, and refuses every other before counting it."""
    ring_ticks = 8
    held = [spec for spec in specs if _ring_holds(spec, ring_ticks)]
    refused = [spec for spec in specs if not _ring_holds(spec, ring_ticks)]
    naive_fired, _ = _run_naive(held)
    wheel_fired, _ = _run_wheel(held, ring_ticks=ring_ticks)
    assert wheel_fired == naive_fired
    wheel = TimerWheel(Simulator(), ticks_per_second=TPS, ring_ticks=ring_ticks)
    for period_ticks, delay_ticks, _ in refused:
        delay = None if delay_ticks is None else delay_ticks * TICK
        with pytest.raises(SimulationError):
            wheel.every(period_ticks * TICK, lambda: None, initial_delay=delay)
    assert wheel.live_timers == 0


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(timer_specs, min_size=2, max_size=16))
def test_wheel_is_deterministic_across_runs(specs):
    # The smallest ring that holds every drawn registration (first delays
    # up to 64 ticks): slots wrap it twice over the 160-tick run.
    first, first_events = _run_wheel(specs, ring_ticks=65)
    second, second_events = _run_wheel(specs, ring_ticks=65)
    assert first == second
    assert first_events == second_events


@settings(max_examples=25, deadline=None)
@given(
    n_timers=st.integers(min_value=4, max_value=40),
    period_ticks=st.integers(min_value=1, max_value=16),
)
def test_shared_period_timers_batch_into_fewer_events(n_timers, period_ticks):
    """N same-period, same-phase timers cost one slot event per firing
    instant on the wheel but N events per instant on the heap."""
    specs = [(period_ticks, 0, None)] * n_timers
    naive_fired, naive_events = _run_naive(specs)
    wheel_fired, wheel_events = _run_wheel(specs, ring_ticks=512)
    assert wheel_fired == naive_fired
    firings_per_timer = len(naive_fired) // n_timers
    # Naive: one engine event per firing. Wheel: one per occupied instant.
    assert naive_events == len(naive_fired)
    assert wheel_events <= firings_per_timer + 1
