"""Tests for the scenario-level sharded executor, its forced fallbacks,
the merge primitives, the CLI plumbing and the perf-gate flags."""

import json
import os

import pytest

from repro.faults.schedule import DegradeEvent
from repro.gossip.config import EnhancedGossipConfig
from repro.metrics.latency import DisseminationTracker
from repro.net import TrafficMonitor
from repro.perf.regression import GOLDEN_SCENARIOS
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import run_scenario
from repro.scenarios.sharded import (
    InlineTransport,
    ShardPlan,
    ShardSession,
    WindowedCoordinator,
    merge_shard_results,
    plan_for,
    run_scenario_sharded,
)
from repro.scenarios.spec import RegionTopology, ScenarioSpec, WorkloadSpec

from tests.conftest import node_names_interned


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny-sharded",
        description="test spec",
        gossip=EnhancedGossipConfig.paper_f4,
        n_peers=12,
        workload=WorkloadSpec(blocks=2, idle_tail=0.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def test_spec_shards_field_validates():
    spec = _tiny_spec(shards=4)
    assert spec.shards == 4
    with pytest.raises(ValueError):
        _tiny_spec(shards=0)


def test_plan_for_lan_scenario_round_robins_peers():
    plan = plan_for(_tiny_spec(), shards=3)
    assert plan.shards == 3
    assert len(plan.owner_of) == 13  # 12 peers + orderer
    assert plan.lookahead == pytest.approx(0.012)


def test_plan_for_degrade_faults_no_longer_forces_single():
    # Degrade faults draw from per-source streams now, so they shard.
    spec = _tiny_spec(faults=(DegradeEvent(at=1.0, restore_at=2.0),))
    plan = plan_for(spec, shards=4)
    assert plan.shards == 4
    assert plan.forced_reason is None


def test_plan_for_wan_scenario_is_region_aligned():
    spec = get_scenario("wan-3-region")
    plan = plan_for(spec, shards=3)
    assert plan.shards == 3
    # Peers of one organization (= one region) share a shard.
    owners = {plan.owner_of[f"peer-{i}"] for i in range(0, 24, 3)}  # org0
    assert len(owners) == 1


def test_background_traffic_does_not_shorten_the_wan_lookahead():
    """Aggregated background copies never cross a shard (they are never
    delivered), so they cannot hold the window below the cross-shard
    region-pair bound; before, background forced the intra-region
    ``min_delay`` and 1,008 window rounds on this run."""
    spec = get_scenario("wan-3-region")
    assert spec.background
    plan = plan_for(spec, shards=3)
    quiet = plan_for(spec.with_overrides(background=False), shards=3)
    assert plan.lookahead == quiet.lookahead == pytest.approx(0.042)
    run = run_scenario_sharded(spec, seed=1, shards=3, mode="inline")
    assert run.mode == "inline"
    assert 0 < run.health.window_rounds < 400


def test_run_scenario_sharded_falls_back_to_single():
    # A one-region topology cannot be region-partitioned into two shards.
    spec = _tiny_spec(topology=RegionTopology(regions=("solo",)))
    run = run_scenario_sharded(spec, seed=1, shards=4, mode="inline")
    assert run.mode == "single"
    assert run.plan.forced_reason
    assert run.snapshot()["total_messages"] > 0


def test_run_scenario_sharded_uses_spec_default_shards():
    run = run_scenario_sharded(_tiny_spec(shards=2), seed=1, mode="inline")
    assert run.plan.shards == 2


def test_sharded_snapshot_matches_single_for_tiny_spec():
    spec = _tiny_spec()
    single = run_scenario(spec, seed=3).snapshot()
    snap = run_scenario_sharded(spec, seed=3, shards=2, mode="inline").snapshot()
    for key, value in single.items():
        if key == "events_executed":
            continue
        assert snap[key] == value, key


def test_shard_session_rejects_foreign_delivery():
    """A record mis-routed to a shard that does not execute its
    destination — a peer or the orderer — must raise when its delivery
    event runs, not vanish."""
    from repro.gossip.messages import PushDigest

    spec = _tiny_spec()
    plan = plan_for(spec, shards=2)
    shard_id = 1 - plan.owner_of["orderer"]  # the shard the orderer is foreign to
    local = plan.owned_by(shard_id)[0]
    foreign_peer = next(
        name for name in plan.owned_by(1 - shard_id) if name != "orderer"
    )
    for foreign in ("orderer", foreign_peer):
        session = ShardSession(spec, 1, plan, shard_id=shard_id)
        assert foreign not in session.net.peers
        record = ("d", 0.005, local, foreign, PushDigest(0, "hash", 1))
        with pytest.raises(AssertionError, match=f"foreign node {foreign!r}"):
            session.handle(("window", 0.01, [record]))


@pytest.mark.parametrize("topology", [None, RegionTopology(regions=("east", "west"))])
def test_a_shard_builds_only_the_peers_it_executes(topology):
    """Foreign nodes are names: placed and guard-registered, with no
    identity, peer, view or gossip module built for them."""
    from repro.experiments.builders import _FOREIGN
    from repro.experiments.dissemination import deploy
    from repro.scenarios.runner import dissemination_config

    spec = _tiny_spec(organizations=2, topology=topology)
    plan = plan_for(spec, shards=2)
    whole = deploy(dissemination_config(spec, seed=1))
    for shard_id in range(2):
        session = ShardSession(spec, 1, plan, shard_id)
        net = session.net
        owned = set(plan.owned_by(shard_id))
        assert set(net.peers) == owned - {"orderer"}
        assert (net.orderer is not None) == ("orderer" in owned)
        assert net.n_peers == spec.n_peers
        assert net.peer_names == sorted(plan.owner_of.keys() - {"orderer"})
        assert net.network.regions == whole.network.regions
        if topology is not None:
            assert set(net.network.regions) == set(plan.owner_of)
        for name in plan.owner_of:
            assert name in net.network
            routes = net.network._routes[name]
            assert (routes == (_FOREIGN, name)) == (name not in owned), name


def test_a_shard_session_holds_a_fraction_of_a_whole_deployment():
    """A two-shard session builds half the peers, so it holds half a
    whole deployment's memory plus what every shard holds whole: the
    replicated membership (every node's name and route entry, and a 56 B
    ``(guard table, name)`` route tuple per foreign node; a foreign node
    has no identity) and the timer wheel's armed slots, which the peers'
    start phases fill in both. That excess is bounded per node: 195 B
    measured at 400 peers (244 B while every shard enrolled every node's
    identity in a registry), bounded at 270 B (a bound on the ratio,
    ``shard < 0.6 * whole``, tightened by itself as the per-peer bytes
    fell). A session
    that also builds never-started replicas of the other half holds
    990 B per node over half (0.80 of a whole deployment when that bound
    was set).

    Each build starts from a full collection, which also empties
    CPython's free lists: otherwise the first build reuses whatever
    objects an earlier test's run left there without tracemalloc seeing
    them (~50 KB here), and the figure depends on which tests ran first
    (0.586 of a whole alone, 0.609 after this file's tiny sharded run).
    Both builds run with the node names interned beforehand
    (:func:`tests.conftest.node_names_interned`), so neither is charged a
    resize of CPython's interned-string dict: at 800 peers that resize
    once landed in the shard session, which then read 1.03 of a whole
    deployment (0.58 with the names held)."""
    import gc
    import tracemalloc

    from repro.experiments.dissemination import deploy
    from repro.scenarios.runner import dissemination_config

    spec = _tiny_spec(n_peers=400)
    plan = plan_for(spec, shards=2)

    def footprint(build):
        gc.collect()
        tracemalloc.start()
        try:
            built = build()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del built
        return size

    with node_names_interned(spec.n_peers):
        whole = footprint(lambda: deploy(dissemination_config(spec, seed=1)))
        shard = footprint(lambda: ShardSession(spec, 1, plan, shard_id=0))
    excess_per_node = (shard - whole / 2) / spec.n_peers
    assert excess_per_node < 270, (shard, whole, excess_per_node)


@pytest.mark.parametrize(
    "scenario",
    [name for name in scenario_names() if not name.startswith("fig-")],
)
def test_two_inline_shards_return_the_single_process_snapshot(scenario):
    """Every registered scenario but the paper-figure ones (which take
    ~4x as long): the churn, adversary and partition paths resolve names
    against the membership and touch only the peers a shard holds."""
    single = run_scenario(scenario).snapshot()
    sharded = run_scenario_sharded(scenario, shards=2, mode="inline").snapshot()
    assert sharded.keys() == single.keys()
    for key, value in single.items():
        if key != "events_executed":
            assert sharded[key] == value, key


def test_merge_requires_matching_final_times():
    spec = _tiny_spec()
    plan = plan_for(spec, shards=2)
    a = ShardSession(spec, 1, plan, shard_id=0).result()
    b = ShardSession(spec, 1, plan, shard_id=1).result()
    b.final_time = 99.0
    from repro.scenarios.sharded import ShardWorkerError

    with pytest.raises(ShardWorkerError, match="different times"):
        merge_shard_results(spec, 1, [a, b])


def test_merge_reads_its_results_and_is_repeatable():
    """Merging folds into fresh accumulators: a second merge of the same
    results returns the same snapshot and no shard's monitor has grown."""
    spec = get_scenario("byzantine-teasers")
    plan = plan_for(spec, shards=2)
    sessions = [ShardSession(spec, 1, plan, shard_id) for shard_id in range(2)]
    coordinator = WindowedCoordinator(
        [InlineTransport(session) for session in sessions], plan, deadline=60.0
    )
    coordinator.run()
    results = coordinator.collect()
    before = results[0].monitor.totals.__dict__
    first = merge_shard_results(spec, 1, results)
    assert merge_shard_results(spec, 1, results) == first
    assert results[0].monitor.totals.__dict__ == before
    assert first["total_bytes"] > before["bytes"]  # shard 1 sent something too


@pytest.mark.parametrize(
    "field, call",
    [
        ("shards", lambda: run_scenario_sharded(_tiny_spec(), shards=0, mode="inline")),
        ("shards", lambda: run_scenario_sharded(_tiny_spec(), shards=-3, mode="inline")),
        ("mode", lambda: run_scenario_sharded(_tiny_spec(), shards=1, mode="bogus")),
        ("mode", lambda: run_scenario_sharded(_tiny_spec(), shards=2, mode="bogus")),
        ("seeds", lambda: _tiny_spec(seeds=())),
    ],
)
def test_bad_arguments_are_refused_by_name_before_any_work(monkeypatch, field, call):
    from repro.net.network import Network

    def build(*args, **kwargs):
        raise AssertionError("a deployment was built for a call that had to be refused")

    monkeypatch.setattr(Network, "__init__", build)
    with pytest.raises(ValueError, match=field):
        call()


@pytest.mark.parametrize(
    "scenario, seed", [*GOLDEN_SCENARIOS.values(), ("mass-departure", 1)]
)
def test_one_shard_window_protocol_returns_the_single_process_snapshot(scenario, seed):
    """The window protocol with one shard owning every node slices the
    single-process run at the two-shard plan's barriers and changes
    nothing — ``events_executed`` included, which no comparison at
    shards > 1 can check."""
    spec = get_scenario(scenario)
    two = plan_for(spec, shards=2, seed=seed)
    assert two.shards == 2
    plan = ShardPlan(
        shards=1,
        owner_of=dict.fromkeys(two.owner_of, 0),
        lookahead=two.lookahead,
        windows_per_second=two.windows_per_second,
    )
    workload = spec.workload
    coordinator = WindowedCoordinator(
        [InlineTransport(ShardSession(spec, seed, plan, shard_id=0))],
        plan,
        deadline=workload.blocks * workload.block_period + workload.grace_period,
        idle_tail=workload.idle_tail,
    )
    coordinator.run()
    snapshot = merge_shard_results(spec, seed, coordinator.collect())
    assert snapshot == run_scenario(spec, seed=seed).snapshot()


def test_sharded_gate_flags_forced_single_plans():
    """A golden whose plan degrades to single-process must FAIL the
    sharded gate — a silent fallback would let CI go green while
    exercising nothing sharded."""
    from repro.perf import check_determinism

    spec = _tiny_spec(topology=RegionTopology(regions=("solo",)))
    table = {
        "scenarios": {"forced-single": (spec, 1)},
        "golden": {"forced-single": {"total_messages": 1}},
    }
    diff = []
    mismatches = check_determinism(shards=2, mode="inline", diff=diff, **table)
    assert mismatches and "degraded to single-process" in mismatches[0]
    assert diff and diff[0]["key"] == "plan"
    # Asked for one process, the same plan is no failure: only the
    # made-up golden value is.
    diff = []
    check_determinism(shards=1, diff=diff, **table)
    assert [record["key"] for record in diff] == ["total_messages"]


def test_placement_helpers_shared_with_builders():
    """The shard planner derives node placement from the same helpers the
    builder uses, so the two can never silently diverge."""
    from repro.experiments.builders import (
        build_network,
        node_region_placement,
        organization_members,
    )

    org_members = organization_members(9, 3)
    assert org_members["org1"] == ["peer-1", "peer-4", "peer-7"]
    placement = node_region_placement(
        org_members, {"org0": "eu", "org1": "us", "org2": "eu"}
    )
    assert placement["peer-4"] == "us"
    assert placement["orderer"] == "eu"  # sorted-first default
    net = build_network(
        n_peers=9,
        gossip=EnhancedGossipConfig.paper_f4(),
        organizations=3,
        org_regions={"org0": "eu", "org1": "us", "org2": "eu"},
    )
    assert net.network.regions == placement
    with pytest.raises(ValueError, match="without a region placement"):
        node_region_placement(org_members, {"org0": "eu"})


# ----- merge primitives ----------------------------------------------------


def test_traffic_monitor_merge_is_exact():
    """Recording split across two monitors and merged equals recording
    everything into one — bins, kinds, rx side and totals."""
    whole = TrafficMonitor()
    part_a = TrafficMonitor()
    part_b = TrafficMonitor()
    records = [
        (0.5, "a", "b", "X", 100),
        (0.7, "b", "a", "Y", 2_000),
        (1.2, "a", "c", "X", 300),
        (5_000.5, "c", "a", "Z", 7),  # sparse overflow path
    ]
    for index, (time, src, dst, kind, size) in enumerate(records):
        whole.record_multicast(time, src, (dst,), kind, size)
        (part_a if index % 2 == 0 else part_b).record_multicast(time, src, (dst,), kind, size)
    whole.record_multicast(2.0, "a", ["b", "c"], "M", 50)
    part_a.record_multicast(2.0, "a", ["b", "c"], "M", 50)
    part_a.merge_from(part_b)
    merged = part_a
    assert merged.totals.__dict__ == whole.totals.__dict__
    for node in whole.nodes():
        assert merged.series(node, "tx") == whole.series(node, "tx")
        assert merged.series(node, "rx") == whole.series(node, "rx")
        assert merged.node_totals(node).__dict__ == whole.node_totals(node).__dict__
    assert merged.last_time == whole.last_time


def test_traffic_monitor_merge_rejects_mismatched_bins():
    with pytest.raises(ValueError, match="bin width"):
        TrafficMonitor(bin_width=1.0).merge_from(TrafficMonitor(bin_width=2.0))


def test_tracker_merge_reproduces_single_tracker():
    whole = DisseminationTracker()
    part_a = DisseminationTracker()
    part_b = DisseminationTracker()
    whole.block_cut(0, 1.0)
    part_a.block_cut(0, 1.0)
    whole.leader_received(0, 1.1)
    part_a.leader_received(0, 1.1)
    for index, (peer, time) in enumerate([("p1", 1.2), ("p2", 1.3), ("p3", 1.25)]):
        whole.first_reception(peer, 0, time)
        (part_a if index % 2 == 0 else part_b).first_reception(peer, 0, time)
    part_a.merge_from(part_b)
    assert part_a.summary() == whole.summary()
    assert part_a.block_latencies(0) == whole.block_latencies(0)


# ----- CLI ----------------------------------------------------------------


def test_cli_run_sharded_json(capsys):
    from repro.experiments.cli import main

    assert main(["run", "golden-original-30", "--shards", "2",
                 "--mode", "inline", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["scenario"] == "golden-original-30"
    assert snapshot["total_messages"] > 0


def test_cli_run_unknown_scenario_exits_2(capsys):
    from repro.experiments.cli import main

    assert main(["run", "no-such-scenario"]) == 2


def test_cli_run_single_process_default(capsys):
    from repro.experiments.cli import main

    assert main(["run", "golden-original-30"]) == 0
    out = capsys.readouterr().out
    assert "single-process" in out


# ----- perf gate flags -----------------------------------------------------


def test_perf_gate_rejects_a_shard_count_below_one():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perf_gate",
        os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "perf_gate.py"),
    )
    perf_gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_gate)
    with pytest.raises(SystemExit) as excinfo:
        perf_gate.main(["--shards", "0"])
    assert excinfo.value.code == 2  # argparse usage error
