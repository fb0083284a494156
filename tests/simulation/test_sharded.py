"""Unit tests for the shard planner and the engine's window hook."""

import pytest

from repro.net.latency import ConstantLatency, LanLatency, TopologyLatency
from repro.simulation import SimulationError, Simulator
from repro.scenarios.sharded import MIN_LOOKAHEAD, plan_shards


NODES = [f"peer-{i}" for i in range(10)] + ["orderer"]


def test_plan_single_when_one_shard_requested():
    plan = plan_shards(NODES, 1, latency_model=LanLatency())
    assert plan.shards == 1
    assert plan.forced_reason is None


def test_plan_round_robin_without_regions():
    plan = plan_shards(NODES, 3, latency_model=LanLatency())
    assert plan.shards == 3
    owners = set(plan.owner_of.values())
    assert owners == {0, 1, 2}
    # Numeric-aware ordering: peer-2 ranks before peer-10.
    assert plan.owner_of["peer-0"] != plan.owner_of["peer-1"]
    assert len(plan.owner_of) == len(NODES)
    # Balanced to within one node.
    sizes = [len(plan.owned_by(k)) for k in range(3)]
    assert max(sizes) - min(sizes) <= 1


def test_plan_lookahead_from_lan_base():
    model = LanLatency(base=0.012)
    plan = plan_shards(NODES, 2, latency_model=model)
    assert plan.lookahead == pytest.approx(0.012)
    assert plan.windows_per_second == 84  # ceil(1 / 0.012)
    assert plan.window * plan.windows_per_second == pytest.approx(1.0)
    # The window never exceeds the lookahead (conservative guarantee).
    assert plan.window <= plan.lookahead


def test_plan_region_aligned_uses_cross_shard_link_minimum():
    regions = {name: ("east" if i % 2 else "west") for i, name in enumerate(NODES)}
    model = TopologyLatency(
        {
            ("east", "east"): (0.001, 0.0005),
            ("west", "west"): (0.001, 0.0005),
            ("east", "west"): (0.050, 0.004),
        }
    )
    plan = plan_shards(NODES, 2, regions=regions, latency_model=model)
    assert plan.shards == 2
    # Whole regions land on one shard each.
    east = {name for name, region in regions.items() if region == "east"}
    assert len({plan.owner_of[name] for name in east}) == 1
    # Lookahead is the inter-region base, not the fast intra links.
    assert plan.lookahead == pytest.approx(0.050)


def test_plan_caps_shards_at_region_count():
    regions = {name: ("east" if i % 2 else "west") for i, name in enumerate(NODES)}
    model = TopologyLatency({("east", "west"): (0.040,)}, default=0.010)
    plan = plan_shards(NODES, 4, regions=regions, latency_model=model)
    assert plan.shards == 2


def test_plan_forced_single_below_lookahead_floor():
    plan = plan_shards(NODES, 2, latency_model=ConstantLatency(0.0))
    assert plan.shards == 1
    assert "lookahead" in plan.forced_reason


def test_plan_forced_single_without_model():
    plan = plan_shards(NODES, 2)
    assert plan.shards == 1
    assert plan.forced_reason


def test_plan_lan_model_uses_its_base():
    plan = plan_shards(NODES, 2, latency_model=LanLatency(base=0.020, jitter_median=0.01))
    assert plan.lookahead == pytest.approx(0.020)
    assert plan.windows_per_second == 50


def test_min_lookahead_floor_matches_module_constant():
    model = ConstantLatency(MIN_LOOKAHEAD / 2)
    assert plan_shards(NODES, 2, latency_model=model).shards == 1
    model = ConstantLatency(MIN_LOOKAHEAD * 2)
    assert plan_shards(NODES, 2, latency_model=model).shards == 2


def test_plan_integer_barriers_are_exact():
    plan = plan_shards(NODES, 2, latency_model=LanLatency(base=0.012))
    m = plan.windows_per_second
    for second in (1, 2, 7, 100):
        assert (second * m) / m == float(second)


def test_owned_by_partitions_every_node():
    plan = plan_shards(NODES, 4, latency_model=LanLatency())
    seen = []
    for shard in range(plan.shards):
        seen.extend(plan.owned_by(shard))
    assert sorted(seen) == sorted(NODES)


# ----- Simulator.run_window ------------------------------------------------


def test_run_window_excludes_events_at_the_edge():
    sim = Simulator()
    fired = []
    sim.schedule_at(0.5, fired.append, "a")
    sim.schedule_at(1.0, fired.append, "edge")
    sim.schedule_at(1.5, fired.append, "b")
    sim.run_window(1.0)
    assert fired == ["a"]
    assert sim.now == 1.0
    # The edge event is still pending and fires in the next (inclusive) run.
    sim.run(until=1.0)
    assert fired == ["a", "edge"]
    sim.run(until=2.0)
    assert fired == ["a", "edge", "b"]


def test_run_window_advances_clock_when_idle():
    sim = Simulator()
    assert sim.run_window(3.25) == 3.25
    assert sim.now == 3.25


def test_run_window_allows_scheduling_at_the_barrier():
    sim = Simulator()
    sim.run_window(1.0)
    fired = []
    # Injected cross-shard records may arrive at exactly the barrier time.
    sim.schedule_call(1.0, fired.append, ("tie",))
    sim.run(until=1.0)
    assert fired == ["tie"]


def test_run_window_rejects_past_end():
    sim = Simulator()
    sim.run_window(2.0)
    with pytest.raises(SimulationError):
        sim.run_window(1.0)


def test_run_window_counts_events_and_preserves_live_counter():
    sim = Simulator()
    for t in (0.1, 0.2, 0.9, 1.4):
        sim.schedule_at(t, lambda: None)
    sim.run_window(1.0)
    assert sim.events_executed == 3
    assert sim.pending_events == 1


def test_run_window_not_reentrant():
    sim = Simulator()

    def reenter():
        sim.run_window(5.0)

    sim.schedule_at(0.5, reenter)
    with pytest.raises(SimulationError):
        sim.run_window(1.0)
