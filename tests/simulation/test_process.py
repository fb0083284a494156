"""Unit tests for the process/actor base class."""

import pytest

from repro.simulation import SimulationError
from repro.simulation.process import Process
from repro.simulation.timers import PeriodicTimer


def make_process(sim, streams, name="proc"):
    return Process(sim, name, streams)


def test_process_exposes_clock(sim, streams):
    process = make_process(sim, streams)
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert process.now == 3.0


def test_rng_streams_scoped_by_process_name(sim, streams):
    a = make_process(sim, streams, "a")
    b = make_process(sim, streams, "b")
    assert a.rng("x").random() != b.rng("x").random()


def test_after_runs_callback(sim, streams):
    process = make_process(sim, streams)
    fired = []
    assert process.after(1.0, fired.append, "x") is None  # not cancellable
    # One flat, handle-free entry: the process, the callback and its
    # argument sit in it, with no argument tuple and no bound guard.
    ((time, _, fire, owner, callback, arg),) = sim._heap
    assert (time, owner, callback, arg) == (1.0, process, fired.append, "x")
    assert not hasattr(fire, "__self__")  # a module function, not a bound method
    sim.run()
    assert fired == ["x"]


def test_after_entries_are_flat_for_every_arity(sim, streams):
    process = make_process(sim, streams)
    fired = []
    process.after(1.0, lambda: fired.append(()))
    process.after(2.0, lambda a, b: fired.append((a, b)), "a", "b")
    process.after(3.0, lambda *args: fired.append(args), 1, 2, 3)
    assert sorted(len(entry) for entry in sim._heap) == [6, 6, 7]
    sim.run()
    assert fired == [(), ("a", "b"), (1, 2, 3)]


def test_after_skipped_when_dead(sim, streams):
    process = make_process(sim, streams)
    fired = []
    process.after(1.0, fired.append, "x")
    process.shutdown()
    sim.run()
    assert fired == []


def test_after_checks_liveness_when_it_fires_not_when_scheduled(sim, streams):
    """A one-shot is final: death and restart before it fires leave it to
    run, because the guard reads ``alive`` at fire time."""
    process = make_process(sim, streams)
    fired = []
    process.after(1.0, fired.append, "x")
    process.shutdown()
    process.restart()
    sim.run()
    assert fired == ["x"]



def test_a_one_shot_that_fires_while_dead_is_spent_not_deferred(sim, streams):
    """A one-shot due while its process is down is dropped for good: a
    restart after its time does not replay it."""
    process = make_process(sim, streams)
    fired = []
    process.after(2.0, fired.append, "x")
    process.shutdown()
    sim.schedule(3.0, process.restart)
    sim.run()
    assert fired == [] and process.alive
    assert sim.pending_events == 0

def test_every_registers_periodic_timer(sim, streams):
    process = make_process(sim, streams)
    ticks = []
    process.every(1.0, lambda: ticks.append(process.now))
    sim.run(until=3.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_shutdown_stops_timers(sim, streams):
    process = make_process(sim, streams)
    ticks = []
    process.every(1.0, lambda: ticks.append(process.now))
    sim.schedule(2.5, process.shutdown)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert not process.alive


def test_periodic_callback_guarded_after_death(sim, streams):
    """Death is ``shutdown()``, which stops the timer: the callback, which
    the timer calls directly, never runs again."""
    process = make_process(sim, streams)
    ticks = []
    timer = process.every(1.0, lambda: ticks.append(process.now))
    sim.run(until=1.5)
    process.shutdown()
    sim.run(until=3.0)
    assert ticks == [1.0]
    assert timer.ticks == 1 and not timer.running


def test_every_on_a_dead_process_raises(sim, streams):
    process = make_process(sim, streams)
    process.shutdown()
    with pytest.raises(SimulationError, match="proc is not alive"):
        process.every(1.0, lambda: None)
    process.restart()
    assert process.every(1.0, lambda: None).running


def test_naive_timer_callback_shutting_its_process_down_stops_its_later_timers(sim, streams):
    """On the ``PeriodicTimer`` path (an off-grid period) two timers of one
    process fire at the same instant; the first shuts the process down, so
    the second, stopped before its event surfaces, never calls back."""
    process = make_process(sim, streams)
    fired = []

    def first():
        fired.append(("first", sim.now))
        process.shutdown()

    timers = [process.every(1.0 / 3.0, first), process.every(1.0 / 3.0, lambda: fired.append("second"))]
    assert all(isinstance(timer, PeriodicTimer) for timer in timers)
    sim.run(until=2.0)
    assert fired == [("first", 1.0 / 3.0)]
    assert [timer.ticks for timer in timers] == [1, 0]


def test_restart_marks_alive(sim, streams):
    process = make_process(sim, streams)
    process.shutdown()
    process.restart()
    assert process.alive
