"""Unit tests for periodic timers."""

import pytest

from repro.simulation import SimulationError
from repro.simulation.timers import PeriodicTimer


def test_ticks_at_fixed_period(sim):
    times = []
    PeriodicTimer(sim, 2.0, lambda: times.append(sim.now))
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_initial_delay_overrides_first_tick(sim):
    times = []
    PeriodicTimer(sim, 2.0, lambda: times.append(sim.now), initial_delay=0.5)
    sim.run(until=5.0)
    assert times == [0.5, 2.5, 4.5]


def test_zero_initial_delay_fires_immediately(sim):
    times = []
    PeriodicTimer(sim, 1.0, lambda: times.append(sim.now), initial_delay=0.0)
    sim.run(until=2.5)
    assert times == [0.0, 1.0, 2.0]


def test_stop_halts_future_ticks(sim):
    times = []
    timer = PeriodicTimer(sim, 1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, timer.stop)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]
    assert not timer.running
    # The tick pending at the stop (t=3.0) fired as a no-op and armed none.
    assert sim.events_executed == 4 and sim.pending_events == 0


def test_stop_before_the_first_tick_leaves_one_no_op_tick(sim):
    fired = []
    timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now))
    timer.stop()
    timer.stop()  # idempotent
    sim.run()
    assert fired == [] and timer.ticks == 0
    assert (sim.now, sim.events_executed, sim.pending_events) == (1.0, 1, 0)


def test_stop_from_inside_callback(sim):
    timer_box = []

    def tick():
        if sim.now >= 3.0:
            timer_box[0].stop()

    timer_box.append(PeriodicTimer(sim, 1.0, tick))
    sim.run(until=10.0)
    assert timer_box[0].ticks == 3



def test_stopping_inside_the_callback_arms_no_next_tick(sim):
    timer_box = []
    pending_after_stop = []

    def tick():
        timer_box[0].stop()
        sim.schedule(0.0, lambda: pending_after_stop.append(sim.pending_events))

    timer_box.append(PeriodicTimer(sim, 1.0, tick))
    sim.run()
    # Only the probe was queued: the stopped timer left no tick behind.
    assert pending_after_stop == [0]
    assert (timer_box[0].ticks, sim.now, sim.events_executed) == (1, 1.0, 2)


def test_tick_counter(sim):
    timer = PeriodicTimer(sim, 1.0, lambda: None)
    sim.run(until=4.5)
    assert timer.ticks == 4


def test_invalid_period_rejected(sim):
    with pytest.raises(SimulationError):
        PeriodicTimer(sim, 0.0, lambda: None)
    with pytest.raises(SimulationError):
        PeriodicTimer(sim, -1.0, lambda: None)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"period": float("inf")}, "timer period"),
        ({"period": float("nan")}, "timer period"),
        ({"period": 1.0, "initial_delay": float("nan")}, "initial_delay"),
        ({"period": 1.0, "initial_delay": float("inf")}, "initial_delay"),
        ({"period": 1.0, "initial_delay": -0.5}, "initial_delay"),
    ],
)
def test_construction_refuses_a_bad_period_or_initial_delay_by_name(sim, kwargs, named):
    """Regression: these failed inside the engine with ``invalid event
    time``, which names no argument; they are the wheel's own checks."""
    with pytest.raises(SimulationError, match=named):
        PeriodicTimer(sim, callback=lambda: None, **kwargs)
    assert sim.pending_events == 0


def test_two_timers_independent(sim):
    a, b = [], []
    PeriodicTimer(sim, 1.0, lambda: a.append(sim.now))
    PeriodicTimer(sim, 1.5, lambda: b.append(sim.now))
    sim.run(until=4.0)
    assert a == [1.0, 2.0, 3.0, 4.0]
    assert b == [1.5, 3.0]
