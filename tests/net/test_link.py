"""Bottleneck-link physics: LinkModel config, the link_enqueue kernel,
and the queue accounting that feeds snapshot ``link`` sections."""

import math

import pytest

from repro.net.link import (
    CoDelConfig,
    LinkModel,
    merge_queue_accounting,
    new_queue_stats,
    summarize_queue_accounting,
)
from repro.simulation._core.kernels import LINK_DROP_CODEL, LINK_DROP_TAIL, link_enqueue


def fresh_state():
    return [0.0, 0.0, 0.0, 0.0]


def no_rng():
    raise AssertionError("kernel consumed RNG where the contract forbids it")


# ---------------------------------------------------------------- config


def test_link_model_defaults_are_noop():
    link = LinkModel()
    assert link.is_noop
    assert link.transfer_time(10**9) == 0.0
    assert link.queue_limit_seconds() == math.inf


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(bandwidth=0.0)
    with pytest.raises(ValueError):
        LinkModel(bandwidth=-1.0)
    with pytest.raises(ValueError):
        LinkModel(queue_bytes=0.0)
    with pytest.raises(TypeError):
        LinkModel(bandwidth=1e6, codel="not-a-config")


def test_codel_validation():
    with pytest.raises(ValueError):
        CoDelConfig(target=0.0)
    with pytest.raises(ValueError):
        CoDelConfig(interval=0.0)
    with pytest.raises(ValueError):
        CoDelConfig(max_drop_probability=0.0)
    with pytest.raises(ValueError):
        CoDelConfig(max_drop_probability=1.5)
    with pytest.raises(ValueError):
        CoDelConfig(ramp=0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LinkModel(bandwidth=math.nan),
        lambda: LinkModel(bandwidth=1e6, queue_bytes=math.nan),
        lambda: CoDelConfig(target=math.nan),
        lambda: CoDelConfig(interval=math.nan),
        lambda: CoDelConfig(ramp=math.nan),
    ],
    ids=["bandwidth", "queue_bytes", "codel-target", "codel-interval", "codel-ramp"],
)
def test_nan_is_rejected_at_construction(build):
    """NaN fails every ``x <= 0`` comparison; it must not slip through as
    an unbounded queue or an invalid event time mid-run."""
    with pytest.raises(ValueError):
        build()


def test_finite_link_is_not_noop_and_derives_times():
    link = LinkModel(bandwidth=1_000_000.0, queue_bytes=500_000.0)
    assert not link.is_noop
    assert link.transfer_time(250_000) == 0.25
    assert link.queue_limit_seconds() == 0.5


def test_kernel_args_encode_aqm_disabled_as_zero_target():
    assert LinkModel(bandwidth=1e6).kernel_args()[1] == 0.0
    codel = CoDelConfig(target=0.007, interval=0.2, max_drop_probability=0.5, ramp=4.0)
    assert LinkModel(bandwidth=1e6, codel=codel).kernel_args() == (
        math.inf, 0.007, 0.2, 0.5, 4.0
    )


# ---------------------------------------------------------------- kernel


def test_serialization_and_fifo_queueing():
    state = fresh_state()
    # Two 0.1 s transfers admitted back to back at t=0: the second queues.
    assert link_enqueue(state, 0.0, 0.1, math.inf, 0.0, 0.0, 1.0, 1.0, no_rng) == 0.1
    assert link_enqueue(state, 0.0, 0.1, math.inf, 0.0, 0.0, 1.0, 1.0, no_rng) == 0.2
    # After the queue drains, a later packet sees an idle link.
    assert link_enqueue(state, 1.0, 0.1, math.inf, 0.0, 0.0, 1.0, 1.0, no_rng) == 1.1


def test_zero_transfer_on_idle_link_is_identity():
    state = fresh_state()
    assert link_enqueue(state, 3.0, 0.0, math.inf, 0.0, 0.0, 1.0, 1.0, no_rng) == 3.0
    assert state == [3.0, 0.0, 0.0, 0.0]


def test_tail_drop_consumes_no_rng_and_leaves_state_untouched():
    state = fresh_state()
    link_enqueue(state, 0.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0, no_rng)
    before = list(state)
    # Wait would be 1.0 s > 0.5 s limit: tail drop, untouched state.
    out = link_enqueue(state, 0.0, 0.2, 0.5, 0.0, 0.0, 1.0, 1.0, no_rng)
    assert out == LINK_DROP_TAIL
    assert state == before


def test_codel_arms_only_after_interval_of_standing_delay():
    target, interval = 0.005, 0.1
    state = fresh_state()
    draws = []

    def rng():
        draws.append(True)
        return 0.0  # always below p: would drop if consulted

    # Build standing queue: every packet after the first waits >= target.
    assert link_enqueue(state, 0.0, 0.05, math.inf, target, interval, 0.9, 8.0, rng) == 0.05
    assert draws == []  # no wait yet -> below target -> no episode
    # Standing above target, but the interval has not elapsed: admitted,
    # no RNG.
    assert link_enqueue(state, 0.0, 0.05, math.inf, target, interval, 0.9, 8.0, rng) == 0.10
    assert draws == []
    # Past first_above (= 0 + interval): dropping state, one draw, drop.
    out = link_enqueue(state, 0.2, 0.5, math.inf, target, interval, 0.9, 8.0, rng)
    assert len(draws) == 0  # at t=0.2 the queue drained (free_at=0.10): episode reset
    assert out == 0.7
    # Rebuild pressure and cross the interval while the queue stands.
    out = link_enqueue(state, 0.2, 0.1, math.inf, target, interval, 0.9, 8.0, rng)
    assert out == pytest.approx(0.8)
    out = link_enqueue(state, 0.35, 0.1, math.inf, target, interval, 0.9, 8.0, rng)
    assert out == LINK_DROP_CODEL
    assert len(draws) == 1


def test_codel_drop_probability_ramps_and_caps():
    state = fresh_state()
    state[0] = 100.0  # deep standing queue
    state[3] = 1.0  # already in dropping state
    seen = []

    def rng():
        seen.append(True)
        return 0.99  # never below p: always admitted

    ramp, max_p = 4.0, 0.5
    # count=0 -> p = 1/4; admitted because 0.99 >= 0.25.
    out = link_enqueue(state, 0.0, 0.1, math.inf, 0.005, 0.1, max_p, ramp, rng)
    assert out == 100.1 and len(seen) == 1

    def always_drop():
        return 0.0

    for expected_count in (1.0, 2.0, 3.0):
        out = link_enqueue(
            state, 0.0, 0.1, math.inf, 0.005, 0.1, max_p, ramp, always_drop
        )
        assert out == LINK_DROP_CODEL
        assert state[2] == expected_count

    # p = min(max_p, (3+1)/4) = 0.5: a draw of exactly 0.5 is admitted.
    def at_cap():
        return 0.5

    out = link_enqueue(state, 0.0, 0.1, math.inf, 0.005, 0.1, max_p, ramp, at_cap)
    assert out > 0


def test_wait_below_target_resets_codel_episode():
    state = [0.0, 5.0, 3.0, 1.0]  # mid-episode bookkeeping
    out = link_enqueue(state, 10.0, 0.1, math.inf, 0.005, 0.1, 0.9, 8.0, no_rng)
    assert out == 10.1
    assert state[1] == state[2] == state[3] == 0.0


def test_degenerate_kernel_is_pure_noop():
    state = fresh_state()
    for now in (0.0, 1.5, 2.0):
        assert (
            link_enqueue(state, now, 0.0, math.inf, 0.0, 0.0, 1.0, 1.0, no_rng) == now
        )


# ------------------------------------------------------------ accounting


def test_summarize_orders_sources_and_counts():
    per_source = {
        "b": [3.0, 1.0, 0.0, 0.25, 0.2, 1000.0],
        "a": [2.0, 0.0, 1.0, 0.5, 0.4, 2000.0],
    }
    summary = summarize_queue_accounting(per_source)
    assert summary == {
        "packets": 5,
        "dropped_tail": 1,
        "dropped_codel": 1,
        "queue_delay_total": 0.75,
        "queue_delay_max": 0.4,
        "queued_bytes": 3000,
    }


def test_merge_queue_accounting_disjoint_union_and_overlap():
    left = {"a": [1.0, 0.0, 0.0, 0.1, 0.1, 10.0]}
    right = {
        "a": [2.0, 1.0, 0.0, 0.3, 0.05, 20.0],
        "b": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    }
    merged = merge_queue_accounting([left, right])
    assert merged["b"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    # element-wise sums, max for the delay-max slot
    assert merged["a"] == [3.0, 1.0, 0.0, pytest.approx(0.4), 0.1, 30.0]
    assert new_queue_stats() == [0.0] * 6
