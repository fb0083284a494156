"""Tests for the determinism gate: golden replay, tolerance, orphans,
refresh."""

import json
from types import SimpleNamespace

import pytest

from repro.perf import (
    EVENT_REDUCTION_FLOOR,
    GOLDEN_METRICS,
    GOLDEN_SCENARIOS,
    NAIVE_ENGINE_EVENTS,
    PR1_REFERENCE_METRICS,
    check_determinism,
    check_reference_tolerance,
    update_golden,
)

# One process, and the cheapest genuinely sharded run (two shards stepped
# inline): the gate's reporting must hold through both.
BOTH_GATES = ({"shards": 1}, {"shards": 2, "mode": "inline"})


def test_determinism_contract_holds():
    """The refactored fast path reproduces the pre-refactor golden metrics
    bit-for-bit (event counts, latency floats, byte totals)."""
    assert check_determinism() == []


def test_sharded_determinism_contract_holds_on_subset():
    """A cheap tier-1 slice of the sharded golden gate: one LAN golden and
    the WAN golden replay bit-for-bit across 2 shard workers (CI runs the
    full set at shards=4 via perf_gate --shards 4)."""
    subset = {
        name: GOLDEN_SCENARIOS[name]
        for name in ("enhanced-n50-b6-seed1", "wan-3-region-seed1")
    }
    assert check_determinism(shards=2, mode="inline", scenarios=subset) == []


@pytest.mark.parametrize("gate", BOTH_GATES, ids=["single-process", "two-inline-shards"])
def test_goldens_replay_with_one_word_fills(gate):
    """With a first fill of one word, a process stream refills from its
    seed up to eight times (1, 2, 4, ... 64 words, then 64 once more)
    before it is promoted; with a uniform fill of one float, every
    network stream is promoted within its sender's first copy (a
    jittered latency draws at least two), its port rebound while the
    fan-out that spent the fill is still drawing through the first
    callable. The goldens still replay
    bit-for-bit (single-process on every key, ``events_executed``
    included)."""
    from unittest import mock

    from repro.simulation import random as random_streams

    registries = []
    init = random_streams.RandomStreams.__init__

    def noted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        registries.append(self)

    with mock.patch.object(random_streams, "FIRST_FILL", 1), mock.patch.object(
        random_streams, "UNIFORM_FILL", 1
    ), mock.patch.object(random_streams.RandomStreams, "__init__", noted):
        assert check_determinism(**gate) == []
    streams = [stream for registry in registries for stream in registry._streams.items()]
    buffered = [stream for _, stream in streams if type(stream) is random_streams.Buffered]
    assert any(stream.index > 0 for stream in buffered)  # refilled
    assert any(stream._live is not None for stream in buffered)  # promoted
    # A latency draw takes two floats or none: every sender that drew
    # holds a generator, and its source is gone from the registry.
    latency = [stream for name, stream in streams if name.startswith("network:latency:")]
    promoted = [stream for stream in latency if type(stream) is random_streams.Stream]
    assert promoted and all(type(stream) is random_streams.Stream or stream.index == 0 for stream in latency)


def test_determinism_diff_records_structured_mismatches():
    """A golden perturbation surfaces as a structured diff record (the
    payload CI uploads as an artifact)."""
    perturbed = {name: dict(metrics) for name, metrics in GOLDEN_METRICS.items()}
    name = "original-n30-b4-seed1"
    perturbed[name]["total_messages"] = -1
    subset = {name: GOLDEN_SCENARIOS[name]}
    for sharding in BOTH_GATES:
        diff = []
        mismatches = check_determinism(scenarios=subset, golden=perturbed, diff=diff, **sharding)
        assert len(mismatches) == len(diff) == 1
        assert diff[0]["scenario"] == name
        assert diff[0]["shards"] == sharding["shards"]
        assert diff[0]["key"] == "total_messages"
        assert diff[0]["golden"] == -1


def test_events_executed_is_compared_single_process_only():
    """The one shard-variant metric: pinned at shards=1, skipped above."""
    name = "original-n30-b4-seed1"
    perturbed = {name: dict(GOLDEN_METRICS[name], events_executed=-1)}
    subset = {name: GOLDEN_SCENARIOS[name]}
    [mismatch] = check_determinism(scenarios=subset, golden=perturbed)
    assert "events_executed" in mismatch
    assert check_determinism(shards=2, mode="inline", scenarios=subset, golden=perturbed) == []


def test_orphaned_golden_is_a_failure():
    """A committed golden that no GOLDEN_SCENARIOS row replays pins nothing
    while the gate stays green, so it is reported — also on a subset run."""
    name = "original-n30-b4-seed1"
    orphaned = {name: GOLDEN_METRICS[name], "retired-scenario-seed1": {"total_messages": 1}}
    diff = []
    [mismatch] = check_determinism(
        scenarios={name: GOLDEN_SCENARIOS[name]}, golden=orphaned, diff=diff
    )
    assert mismatch.startswith("retired-scenario-seed1:")
    assert "no GOLDEN_SCENARIOS row" in mismatch
    assert diff[0]["scenario"] == "retired-scenario-seed1"


def test_missing_golden_is_reported_with_the_refresh_command():
    subset = {"brand-new-seed1": GOLDEN_SCENARIOS["original-n30-b4-seed1"]}
    [mismatch] = check_determinism(scenarios=subset, golden={})
    assert mismatch.startswith("brand-new-seed1:") and "--update-goldens-only" in mismatch


def test_golden_metrics_cover_both_protocols():
    names = set(GOLDEN_METRICS)
    assert any(name.startswith("enhanced") for name in names)
    assert any(name.startswith("original") for name in names)


def test_committed_goldens_sit_within_the_frozen_references():
    assert check_reference_tolerance() == []


def test_reference_tolerance_reports_missing_metric_keys():
    truncated = {
        name: {k: v for k, v in metrics.items() if k != "latency_p95"}
        for name, metrics in PR1_REFERENCE_METRICS.items()
    }
    failures = check_reference_tolerance(golden=truncated)
    assert failures  # reported, not a KeyError crash
    assert any("missing metrics" in failure for failure in failures)


@pytest.mark.parametrize("name", sorted(NAIVE_ENGINE_EVENTS))
def test_naive_event_floor_trips_when_batching_erodes(name):
    """A refreshed golden may move its event count, but not to within 30%
    of what the naive one-event-per-firing engine executed."""
    ceiling = int((1.0 - EVENT_REDUCTION_FLOOR) * NAIVE_ENGINE_EVENTS[name])
    at_floor = dict(GOLDEN_METRICS, **{name: dict(GOLDEN_METRICS[name], events_executed=ceiling)})
    assert check_reference_tolerance(golden=at_floor) == []
    at_floor[name]["events_executed"] = ceiling + 1
    [failure] = check_reference_tolerance(golden=at_floor)
    assert failure.startswith(f"{name}:") and "naive engine" in failure


def _capture(monkeypatch, change=None):
    """Make update_golden capture the committed goldens, through
    ``change(name, metrics)`` when given, and write to a fresh
    ``GOLDEN_METRICS``: the module's own stays as committed."""
    from repro.perf import regression

    def run(scenario, seed):
        [name] = [key for key, row in GOLDEN_SCENARIOS.items() if row == (scenario, seed)]
        metrics = json.loads(json.dumps(GOLDEN_METRICS[name]))
        if change is not None:
            change(name, metrics)
        return SimpleNamespace(snapshot=lambda: metrics)

    monkeypatch.setattr(regression, "run_scenario", run)
    monkeypatch.setattr(regression, "GOLDEN_METRICS", {})
    return regression


def test_update_golden_writes_an_events_only_change(tmp_path, monkeypatch):
    """An event-count optimization refreshes through update_golden: every
    count goes down, nothing else moves, and the file says exactly that."""

    def fewer_events(name, metrics):
        metrics["events_executed"] -= 100

    regression = _capture(monkeypatch, fewer_events)
    path = tmp_path / "golden_metrics.json"
    captured = update_golden(str(path))
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written == captured == regression.GOLDEN_METRICS
    assert written.keys() == GOLDEN_SCENARIOS.keys()
    for name, metrics in written.items():
        committed = GOLDEN_METRICS[name]
        assert metrics["events_executed"] == committed["events_executed"] - 100
        assert {**metrics, "events_executed": committed["events_executed"]} == committed


def _drift_latency(name, metrics):
    if name == "enhanced-n50-b6-seed1":
        metrics["latency_mean"] *= 1.5


def _erode_batching(name, metrics):
    if name in NAIVE_ENGINE_EVENTS:
        metrics["events_executed"] = int(
            (1.0 - EVENT_REDUCTION_FLOOR) * NAIVE_ENGINE_EVENTS[name]
        ) + 1


@pytest.mark.parametrize(
    "change, reason",
    [(_drift_latency, "latency_mean drifted"), (_erode_batching, "naive engine")],
    ids=["physics-drift", "eroded-batching"],
)
def test_update_golden_refuses_a_capture_out_of_tolerance(change, reason, tmp_path, monkeypatch):
    regression = _capture(monkeypatch, change)
    path = tmp_path / "golden_metrics.json"
    with pytest.raises(ValueError, match="refusing to update goldens") as refused:
        update_golden(str(path))
    assert reason in str(refused.value)
    assert not path.exists()
    assert regression.GOLDEN_METRICS == {}


def _replay_recovery_crash(crash_at, eager):
    """The recovery golden's deployment with its crash moved to ``crash_at``.

    ``eager`` seeds every peer's streams before anything runs, in the
    order component constructors used to; otherwise each is bound at its
    first draw. Returns the snapshot, the push-stream census of the
    crashed peers at the moment they crash, and the final registry.
    """
    from dataclasses import replace
    from unittest import mock

    from repro.experiments.dissemination import run_dissemination
    from repro.fabric.peer import Peer
    from repro.faults.schedule import compile_fault_schedule
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import ScenarioRun, dissemination_config

    golden = get_scenario("golden-recovery-crash")
    (crash,) = golden.faults
    spec = replace(golden, faults=(replace(crash, at=crash_at),))
    bound_at_crash = {}
    compiled = []
    crashing = set()
    crash_peer = Peer.crash

    def crash_and_note(peer):
        if peer.name in crashing:
            bound_at_crash[peer.name] = peer.gossip.push._rng is not None
        crash_peer(peer)

    def prepare(net):
        if eager:
            for name in net.peers:
                for purpose in ("iuc-push-targets", "recovery", "leader-initial-gossiper", "background"):
                    net.streams.buffered(f"{name}:{purpose}", net.sim)
        first, last = crash.regular_slice
        crashing.update(net.regular_peers()[first:last])
        compiled.append(compile_fault_schedule(spec.faults, net))

    # A class-level patch (a peer is slotted): no extra event either.
    with mock.patch.object(Peer, "crash", crash_and_note):
        result = run_dissemination(dissemination_config(spec, seed=1), prepare=prepare)
    run = ScenarioRun(spec=spec, seed=1, result=result, faults=compiled[0])
    return run.snapshot(), bound_at_crash, result.net.streams


def test_recovery_golden_replays_with_streams_bound_in_the_loop():
    """Whether a crashed peer had drawn from a stream before it went down
    cannot move a draw after it recovers. At the golden's t=2 s the five
    peers have all forwarded block 0; crashed at t=1 s — before any block
    exists — they have never drawn a push target and first do so after
    ``recover()``. Either way the run equals the one whose streams were
    all seeded up front, and the unmoved one is the committed golden."""
    snapshot, bound_at_crash, _ = _replay_recovery_crash(2.0, eager=False)
    golden = GOLDEN_METRICS["recovery-crash-n50-b6-seed1"]
    assert {key: snapshot[key] for key in golden} == golden
    assert len(bound_at_crash) == 5 and all(bound_at_crash.values())

    lazy, bound_at_crash, streams = _replay_recovery_crash(1.0, eager=False)
    assert len(bound_at_crash) == 5 and not any(bound_at_crash.values())
    assert all(f"{name}:iuc-push-targets" in streams for name in bound_at_crash)
    eager, _, _ = _replay_recovery_crash(1.0, eager=True)
    assert lazy == eager
    assert lazy["blocks_via_recovery"] > 0
