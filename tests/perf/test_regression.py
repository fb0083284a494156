"""Tests for the perf harness: determinism contract and the gate logic."""

from repro.gossip.config import EnhancedGossipConfig
from repro.perf import (
    GOLDEN_METRICS,
    check_determinism,
    compare_bench,
    metric_snapshot,
    run_core_benchmark,
)


def test_determinism_contract_holds():
    """The refactored fast path reproduces the pre-refactor golden metrics
    bit-for-bit (event counts, latency floats, byte totals)."""
    assert check_determinism() == []


def test_sharded_determinism_contract_holds_on_subset():
    """A cheap tier-1 slice of the sharded golden gate: one LAN golden and
    the WAN golden replay bit-for-bit across 2 shard workers (CI runs the
    full set at shards=4 via perf_gate --determinism-only --shards 4)."""
    from repro.perf import check_sharded_determinism
    from repro.perf.regression import _SCENARIOS

    subset = {
        name: _SCENARIOS[name]
        for name in ("enhanced-n50-b6-seed1", "wan-3-region-seed1")
    }
    assert check_sharded_determinism(shards=2, mode="inline", scenarios=subset) == []


def test_determinism_diff_records_structured_mismatches():
    """A golden perturbation surfaces as a structured diff record (the
    payload CI uploads as an artifact)."""
    from repro.perf.regression import GOLDEN_METRICS

    perturbed = {name: dict(metrics) for name, metrics in GOLDEN_METRICS.items()}
    name = "original-n30-b4-seed1"
    perturbed[name]["total_messages"] = -1
    diff = []
    subset = {name: ("golden-original-30", 1)}
    mismatches = check_determinism(scenarios=subset, golden=perturbed, diff=diff)
    assert mismatches and diff
    assert diff[0]["scenario"] == name
    assert diff[0]["key"] == "total_messages"
    assert diff[0]["golden"] == -1


def test_metric_snapshot_is_reproducible():
    gossip = EnhancedGossipConfig(fout=4, ttl=9, ttl_direct=2)
    first = metric_snapshot(gossip, 20, 3, seed=7)
    second = metric_snapshot(
        EnhancedGossipConfig(fout=4, ttl=9, ttl_direct=2), 20, 3, seed=7
    )
    assert first == second


def test_golden_metrics_cover_both_protocols():
    names = set(GOLDEN_METRICS)
    assert any(name.startswith("enhanced") for name in names)
    assert any(name.startswith("original") for name in names)


def test_core_benchmark_reports_point():
    [result] = run_core_benchmark(sizes=(20,), blocks=2, repeats=1)
    assert result.n_peers == 20
    assert result.events > 0
    assert result.events_per_sec > 0
    assert result.peak_heap_size > 0
    assert result.final_sim_time >= 2 * 1.5


def _payload(points):
    return {"results": [{"n_peers": n, "events_per_sec": eps} for n, eps in points]}


def test_compare_bench_passes_within_threshold():
    baseline = _payload([(50, 100_000.0), (100, 90_000.0)])
    current = _payload([(50, 85_000.0), (100, 95_000.0)])  # -15%, +5%
    assert compare_bench(current, baseline, threshold=0.20) == []


def test_compare_bench_flags_regression():
    baseline = _payload([(50, 100_000.0)])
    current = _payload([(50, 70_000.0)])  # -30%
    failures = compare_bench(current, baseline, threshold=0.20)
    assert len(failures) == 1
    assert "n=50" in failures[0]


def test_compare_bench_flags_missing_size():
    baseline = _payload([(50, 100_000.0), (100, 90_000.0)])
    current = _payload([(50, 100_000.0)])
    failures = compare_bench(current, baseline)
    assert any("missing" in failure for failure in failures)


def test_reference_tolerance_reports_missing_metric_keys():
    from repro.perf import PR1_REFERENCE_METRICS, check_reference_tolerance

    truncated = {
        name: {k: v for k, v in metrics.items() if k != "latency_p95"}
        for name, metrics in PR1_REFERENCE_METRICS.items()
    }
    failures = check_reference_tolerance(golden=truncated)
    assert failures  # reported, not a KeyError crash
    assert any("missing metrics" in failure for failure in failures)


def test_perf_gate_refuses_update_with_determinism_only():
    import importlib.util
    import os
    import pytest

    spec = importlib.util.spec_from_file_location(
        "perf_gate", os.path.join(os.path.dirname(__file__), "..", "..", "scripts", "perf_gate.py")
    )
    perf_gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_gate)
    with pytest.raises(SystemExit) as excinfo:
        perf_gate.main(["--update", "--determinism-only"])
    assert excinfo.value.code == 2  # argparse usage error


def _replay_recovery_crash(crash_at, eager):
    """The recovery golden's deployment with its crash moved to ``crash_at``.

    ``eager`` seeds every peer's streams before anything runs, in the
    order component constructors used to; otherwise each is bound at its
    first draw. Returns the snapshot, the push-stream census of the
    crashed peers at the moment they crash, and the final registry.
    """
    from dataclasses import replace

    from repro.experiments.dissemination import run_dissemination
    from repro.faults.schedule import compile_fault_schedule
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import ScenarioRun, dissemination_config

    golden = get_scenario("golden-recovery-crash")
    (crash,) = golden.faults
    spec = replace(golden, faults=(replace(crash, at=crash_at),))
    bound_at_crash = {}
    compiled = []

    def prepare(net):
        if eager:
            for name in net.peers:
                for purpose in ("iuc-push-targets", "recovery", "leader-initial-gossiper", "background"):
                    net.streams.stream(f"{name}:{purpose}")
        first, last = crash.regular_slice
        for name in net.regular_peers()[first:last]:
            peer = net.peers[name]

            def crash_and_note(peer=peer, crash=peer.crash):
                bound_at_crash[peer.name] = peer.gossip.push._rng is not None
                crash()

            peer.crash = crash_and_note  # an instance attribute: no extra event
        compiled.append(compile_fault_schedule(spec.faults, net))

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
