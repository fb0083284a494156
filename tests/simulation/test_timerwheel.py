"""Unit tests for the one-level timer wheel."""

import pytest

from repro.simulation import SimulationError, Simulator, TimerWheel, WheelTimer
from repro.simulation.process import Process
from repro.simulation.random import RandomStreams
from repro.simulation.timers import PeriodicTimer


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def wheel(sim) -> TimerWheel:
    return sim.wheel


def test_fires_at_period_multiples(sim, wheel):
    fired = []
    wheel.every(0.5, lambda: fired.append(sim.now))
    sim.run(until=2.2)
    assert fired == [0.5, 1.0, 1.5, 2.0]


def test_initial_delay_overrides_first_tick(sim, wheel):
    fired = []
    wheel.every(1.0, lambda: fired.append(sim.now), initial_delay=0.25)
    sim.run(until=2.5)
    assert fired == [0.25, 1.25, 2.25]


def test_off_grid_phase_quantized_up_to_slot(sim, wheel):
    fired = []
    wheel.every(1.0, lambda: fired.append(sim.now), initial_delay=0.512)
    sim.run(until=1.6)
    # 0.512 rounds up to the next 50 ms boundary; the period then keeps
    # the quantized phase.
    assert fired == [0.55, 1.55]


def test_stop_halts_future_firings(sim, wheel):
    fired = []
    timer = wheel.every(0.5, lambda: fired.append(sim.now))
    sim.run(until=1.2)
    timer.stop()
    sim.run(until=3.0)
    assert fired == [0.5, 1.0]
    assert not timer.running
    assert wheel.live_timers == 0


def test_stopping_twice_counts_the_timer_once(sim, wheel):
    stopped = wheel.every(0.5, lambda: None)
    wheel.every(0.5, lambda: None)
    stopped.stop()
    stopped.stop()
    assert wheel.live_timers == 1


def test_stop_from_inside_callback(sim, wheel):
    fired = []

    def once():
        fired.append(sim.now)
        timer.stop()

    timer = wheel.every(0.5, once)
    sim.run(until=3.0)
    assert fired == [0.5]


def test_stop_is_o1_and_touches_no_heap_entry(sim, wheel):
    timers = [wheel.every(0.25, lambda: None) for _ in range(500)]
    sim.run(until=1.01)
    heap = list(sim._heap)
    for timer in timers:
        timer.stop()
    # Stopping every wheel registration leaves the event heap untouched.
    assert sim._heap == heap
    assert wheel.live_timers == 0


def test_slot_sharing_batches_events(sim, wheel):
    for _ in range(200):
        wheel.every(1.0, lambda: None, initial_delay=0.5)
    sim.run(until=10.0)
    # 200 timers x 10 firings each = 2000 naive events; the wheel fires
    # one slot event per occupied boundary.
    assert wheel.slot_events == 10
    assert sim.events_executed == 10


def test_mixed_phases_share_boundary_slots(sim, wheel):
    for i in range(100):
        # Phases spread over one second at tick granularity: 20 slots.
        wheel.every(1.0, lambda: None, initial_delay=(i % 20) * 0.05)
    sim.run(until=5.0)
    assert sim.events_executed <= 20 * 5 + 1


def test_ticks_counter(sim, wheel):
    timer = wheel.every(0.5, lambda: None)
    sim.run(until=2.6)
    assert timer.ticks == 5


def test_invalid_arguments_rejected(sim, wheel):
    with pytest.raises(SimulationError):
        wheel.every(0.0, lambda: None)
    with pytest.raises(SimulationError):
        wheel.every(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        wheel.every(1.0, lambda: None, initial_delay=-0.1)
    with pytest.raises(SimulationError):
        TimerWheel(sim, ticks_per_second=0)
    with pytest.raises(SimulationError):
        TimerWheel(sim, ring_ticks=1)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"period": float("nan")}, "period"),
        ({"period": float("inf")}, "period"),
        ({"period": 1.0, "initial_delay": float("nan")}, "initial_delay"),
        ({"period": 1.0, "initial_delay": float("inf")}, "initial_delay"),
    ],
)
def test_non_finite_registration_is_refused_before_counting_a_timer(sim, wheel, kwargs, named):
    """A NaN period used to escape as a bare ValueError from the slot
    arithmetic after ``live_timers`` had counted the timer."""
    with pytest.raises(SimulationError, match=named):
        wheel.every(callback=lambda: None, **kwargs)
    assert wheel.live_timers == 0
    assert sim.pending_events == 0


def test_non_finite_periods_are_unsupported(wheel):
    assert not wheel.supports_period(float("inf"))
    assert not wheel.supports_period(float("nan"))


def test_the_horizon_is_the_ring_length(sim, wheel):
    assert wheel.horizon == 25.6  # 512 ticks of 50 ms
    assert TimerWheel(sim, ticks_per_second=16, ring_ticks=4).horizon == 0.25


def test_supports_period_up_to_one_tick_under_the_horizon(wheel):
    assert wheel.supports_period(25.55)
    assert not wheel.supports_period(25.6)
    assert not wheel.supports_period(30.0)


def test_supports_delay_up_to_one_tick_under_the_horizon(wheel):
    assert wheel.supports_delay(None)
    assert wheel.supports_delay(0.0)
    assert wheel.supports_delay(25.55)
    # An off-grid delay past the last tick can quantize up onto the
    # slot one ring length ahead: refused like a delay of the horizon.
    assert not wheel.supports_delay(25.58)
    assert not wheel.supports_delay(25.6)


@pytest.mark.parametrize(
    "period, initial_delay",
    [(25.6, None), (30.0, None), (30.0, 1.0), (1.0, 25.6), (1.0, 40.0), (1.0, 25.58)],
)
def test_every_refuses_what_its_ring_cannot_hold(sim, wheel, period, initial_delay):
    with pytest.raises(SimulationError, match="wheel holds"):
        wheel.every(period, lambda: None, initial_delay=initial_delay)
    assert wheel.live_timers == 0
    assert sim.pending_events == 0


def test_a_small_ring_holds_one_tick_under_its_horizon(sim):
    wheel = TimerWheel(sim, ticks_per_second=16, ring_ticks=4)
    fired = []
    wheel.every(3 / 16, lambda: fired.append(sim.now), initial_delay=3 / 16)
    with pytest.raises(SimulationError):
        wheel.every(4 / 16, lambda: None)
    with pytest.raises(SimulationError):
        wheel.every(1 / 16, lambda: None, initial_delay=4 / 16)
    sim.run(until=1.0)
    assert fired == [3 / 16, 6 / 16, 9 / 16, 12 / 16, 15 / 16]


def test_the_longest_first_delay_fires_on_time_from_off_grid_instants(sim, wheel):
    """A first delay of one tick under the horizon, registered between
    boundaries, lands in the ring and fires quantized up."""
    fired = []
    sim.schedule(
        0.013,
        lambda: wheel.every(1.0, lambda: fired.append(sim.now), initial_delay=25.55),
    )
    sim.run(until=27.0)
    assert fired == [25.6, 26.6]


def test_registration_from_callback_on_own_boundary_defers_one_tick(sim, wheel):
    fired = []

    def register_nested():
        wheel.every(1.0, lambda: fired.append(("nested", sim.now)), initial_delay=0.0)

    wheel.every(1.0, register_nested, initial_delay=1.0)
    sim.run(until=1.2)
    # delay 0 at a boundary that is currently firing: the nested timer
    # cannot land in its own creating slot; it fires one tick later.
    assert fired == [("nested", 1.05)]


def test_supports_period_rejects_sub_tick_and_off_grid(sim, wheel):
    assert wheel.supports_period(0.05)
    assert wheel.supports_period(0.25)
    assert wheel.supports_period(4.0)
    assert not wheel.supports_period(0.01)  # sub-tick: would alias
    # Off-grid: per-firing re-quantization would stretch 0.26 s to 0.30 s,
    # distorting calibrated rates — refused so callers fall back.
    assert not wheel.supports_period(0.26)
    assert not wheel.supports_period(1.0 / 3.0)


def test_process_every_off_grid_period_keeps_exact_naive_rate(sim):
    process = Process(sim, "p", RandomStreams(1))
    fired = []
    timer = process.every(1.0 / 3.0, lambda: fired.append(sim.now))
    assert isinstance(timer, PeriodicTimer)  # fell back: no rate distortion
    sim.run(until=2.0)
    assert len(fired) == 6  # 3/s exactly, not the stretched wheel cadence


def test_two_wheels_same_sim_do_not_interfere(sim):
    first, second = TimerWheel(sim), TimerWheel(sim)
    fired = []
    first.every(1.0, lambda: fired.append("a"))
    second.every(1.0, lambda: fired.append("b"))
    sim.run(until=1.0)
    assert fired == ["a", "b"]


# ----- process integration --------------------------------------------------


def test_process_every_routes_to_wheel(sim):
    process = Process(sim, "p", RandomStreams(1))
    timer = process.every(1.0, lambda: None)
    assert isinstance(timer, WheelTimer)


def test_process_every_falls_back_for_sub_tick_period(sim):
    process = Process(sim, "p", RandomStreams(1))
    timer = process.every(0.01, lambda: None)
    assert isinstance(timer, PeriodicTimer)


@pytest.mark.parametrize(
    "period, initial_delay, kind",
    [
        (25.55, None, WheelTimer),  # one tick under the horizon
        (1.0, 25.55, WheelTimer),
        (25.6, None, PeriodicTimer),  # one horizon
        (1.0, 25.6, PeriodicTimer),
        (30.0, 1.0, PeriodicTimer),  # beyond it
        (1.0, 40.0, PeriodicTimer),
        (1.0, 25.58, PeriodicTimer),  # off-grid, past the last tick
    ],
)
def test_process_every_rides_the_wheel_only_within_its_horizon(sim, period, initial_delay, kind):
    process = Process(sim, "p", RandomStreams(1))
    timer = process.every(period, lambda: None, initial_delay=initial_delay)
    assert type(timer) is kind
    assert sim.wheel.live_timers == (kind is WheelTimer)


def test_a_long_grid_timer_fires_when_the_two_level_wheel_fired_it(sim):
    """A 30 s period with a 40 s first delay, registered at 0: the
    overflow level of the former two-level wheel fired it at 40, 70, 100,
    ... (recorded from it); the fallback timer fires at the same times."""
    process = Process(sim, "p", RandomStreams(1))
    fired = []
    timer = process.every(30.0, lambda: fired.append(sim.now), initial_delay=40.0)
    assert isinstance(timer, PeriodicTimer)
    sim.run(until=200.0)
    assert fired == [40.0, 70.0, 100.0, 130.0, 160.0, 190.0]


def test_process_shutdown_stops_wheel_registrations_without_heap_churn(sim):
    process = Process(sim, "p", RandomStreams(1))
    fired = []
    for _ in range(50):
        process.every(0.5, lambda: fired.append(sim.now))
    sim.run(until=0.6)
    assert len(fired) == 50
    heap_len = len(sim._heap)
    process.shutdown()
    assert len(sim._heap) == heap_len  # no lazy-cancelled heap entries
    sim.run(until=3.0)
    assert len(fired) == 50  # nothing fired after the crash
    assert sim.wheel.live_timers == 0


def test_process_guard_skips_callback_after_death(sim):
    """The wheel calls the process's callback itself; death is
    ``shutdown()``, which stops the registration, and the slot skips a
    stopped timer before its callback."""
    process = Process(sim, "p", RandomStreams(1))
    fired = []
    timer = process.every(1.0, lambda: fired.append(sim.now))
    assert timer._callback.__name__ == "<lambda>"  # no liveness closure around it
    sim.run(until=1.5)
    process.shutdown()
    sim.run(until=3.5)
    assert fired == [1.0]
    assert timer.ticks == 1 and sim.wheel.live_timers == 0


def test_callback_shutting_its_process_down_stops_its_later_timers_in_the_slot(sim):
    """Three registrations share one wheel slot; the first shuts its own
    process down. Its process's later timer in that slot is skipped, the
    other process's still fires, then and at every later slot."""
    process = Process(sim, "p", RandomStreams(1))
    other = Process(sim, "q", RandomStreams(1))
    fired = []

    def first():
        fired.append("p-first")
        process.shutdown()

    process.every(1.0, first)
    other.every(1.0, lambda: fired.append("q"))
    later = process.every(1.0, lambda: fired.append("p-later"))
    sim.run(until=2.5)
    assert fired == ["p-first", "q", "q"]
    assert later.ticks == 0 and not later.running


def test_registration_after_long_idle_beyond_ring_window(sim):
    """Regression: a wheel left idle longer than the ring window (every
    timer stopped, clock advanced by other events) must accept new
    registrations anchored at the *current* time, not at the stale
    fired-through cursor."""
    wheel = sim.wheel
    timer = wheel.every(1.0, lambda: None)
    sim.run(until=5.0)
    timer.stop()
    sim.schedule_at(100.0, lambda: None)  # idle gap far beyond the 25.6 s window
    sim.run()
    assert sim.now == 100.0
    fired = []
    late = wheel.every(1.0, lambda: fired.append(sim.now))
    sim.run(until=104.0)
    assert fired == [101.0, 102.0, 103.0, 104.0]
    late.stop()


def test_crash_recover_cycle_after_long_idle(sim):
    """The end-to-end shape of the bug: all processes die, the clock runs
    far past the ring window, then a recover re-arms periodic components."""
    from repro.simulation.process import Process
    from repro.simulation.random import RandomStreams

    process = Process(sim, "p", RandomStreams(9))
    fired = []
    process.every(2.0, lambda: fired.append(sim.now))
    sim.run(until=6.0)
    process.shutdown()  # crash: wheel registrations cancelled O(1)
    sim.schedule_at(60.0, lambda: None)
    sim.run()  # idle well past the ring window
    process.restart()
    process.every(2.0, lambda: fired.append(sim.now))  # re-armed on recover
    sim.run(until=66.0)
    assert fired == [2.0, 4.0, 6.0, 62.0, 64.0, 66.0]


def test_registration_at_dust_contaminated_boundary_does_not_crash(sim):
    """Regression: a callback running a float hair past an unarmed slot
    boundary (accumulated dust in its own event time) registers a timer
    whose first slot maps back onto that boundary; the wheel must fire it
    now rather than schedule into the past and crash."""
    wheel = sim.wheel
    fired = []
    sim.schedule(0.1 + 1e-13, lambda: wheel.every(0.25, lambda: fired.append(sim.now),
                                                  initial_delay=0.0))
    sim.run(until=1.0)
    assert fired  # first firing happened (at ~0.1), then every 0.25 s
    assert len(fired) == 4
    assert fired[1:] == [0.35, 0.6, 0.85]
