"""Reference seconds: raw seconds with the measured host slowdown divided out."""

from __future__ import annotations

import time

import pytest

from bench import hostspeed
from bench.hostspeed import SpeedMeter


def meter_with(samples):
    """A meter that 'took' ``samples``: (handler entry, handler exit, slowdown)."""
    meter = SpeedMeter()
    for began, ended, slowdown in samples:
        meter.began.append(began)
        meter.ended.append(ended)
        meter.timings.append(tuple(slowdown * reference for reference in hostspeed.REFERENCE_S))
    return meter


def test_quiet_host_reads_raw_seconds_minus_the_handler():
    meter = meter_with([(float(t), t + 0.25, 1.0) for t in range(10)])
    assert meter.reference_seconds(0.0, 9.25) == pytest.approx(9 * 0.75)
    # A stretch that starts and ends between two samples.
    assert meter.reference_seconds(2.5, 2.75) == pytest.approx(0.25)
    # One that starts inside a handler: the handler's share is left out.
    assert meter.reference_seconds(3.1, 4.0) == pytest.approx(0.75)


def test_slow_stretches_are_divided_by_their_slowdown_and_add_up():
    samples = [(float(t), t + 0.25, 1.0 if t < 10 else 2.0) for t in range(20)]
    meter = meter_with(samples)
    assert meter.reference_seconds(0.25, 5.0) == pytest.approx(5 * 0.75)
    assert meter.reference_seconds(14.25, 19.0) == pytest.approx(5 * 0.75 / 2.0)
    whole = meter.reference_seconds(0.0, 19.25)
    parts = meter.reference_seconds(0.0, 7.6) + meter.reference_seconds(7.6, 19.25)
    assert whole == pytest.approx(parts)
    assert 19 * 0.75 / 2.0 < whole < 19 * 0.75


def test_one_inflated_sample_is_ignored():
    samples = [(float(t), t + 0.25, 40.0 if t == 7 else 1.0) for t in range(15)]
    assert meter_with(samples).reference_seconds(0.0, 14.25) == pytest.approx(14 * 0.75)


def test_live_meter_samples_and_restores_the_signal():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    meter.start()
    began = time.perf_counter()
    while time.perf_counter() - began < 0.2:
        pass
    ended = time.perf_counter()
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(meter.began) >= 5
    assert 0 < meter.reference_seconds(began, ended) < 10 * (ended - began)
