"""SweepRunner: parallel fan-out with a byte-deterministic merge."""

import json

import pytest

from repro.scenarios import SweepRunner, get_scenario, merge_runs
from repro.scenarios.sweep import AGGREGATE_KEYS, _run_sweep_cell


def test_jobs_parallel_merge_is_byte_identical_to_sequential():
    """The acceptance criterion: --jobs N produces byte-identical merged
    metrics to --jobs 1 for the same seed list."""
    seeds = [1, 2, 3]
    sequential = SweepRunner(jobs=1).run("partition-heal", seeds=seeds)
    parallel = SweepRunner(jobs=3).run("partition-heal", seeds=seeds)
    assert sequential.to_json() == parallel.to_json()
    assert sequential.render() == parallel.render()


def test_merge_is_arrival_order_independent():
    cells = [("partition-heal", seed, False, None, 1, False) for seed in (2, 1)]
    results = [_run_sweep_cell(cell) for cell in cells]
    shuffled = merge_runs("partition-heal", results)
    ordered = merge_runs("partition-heal", sorted(results))
    assert shuffled.to_json() == ordered.to_json()
    assert shuffled.seeds == [1, 2]


def test_default_seeds_come_from_the_spec():
    report = SweepRunner(jobs=1).run("partition-heal")
    assert report.seeds == list(get_scenario("partition-heal").seeds)


def test_aggregate_means_cover_all_keys():
    report = SweepRunner(jobs=1).run("partition-heal", seeds=[1, 2])
    assert set(report.aggregate) == set(AGGREGATE_KEYS)
    for key in AGGREGATE_KEYS:
        expected = (report.runs[1][key] + report.runs[2][key]) / 2
        assert report.aggregate[key] == expected


def test_report_json_round_trips():
    report = SweepRunner(jobs=1).run("partition-heal", seeds=[1])
    payload = json.loads(report.to_json())
    assert payload["scenario"] == "partition-heal"
    assert payload["seeds"] == [1]
    assert payload["runs"]["1"]["events_executed"] > 0


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)
    runner = SweepRunner(jobs=1)
    with pytest.raises(KeyError):
        runner.run("does-not-exist")
    with pytest.raises(ValueError):
        runner.run("partition-heal", seeds=[])
    with pytest.raises(ValueError):
        runner.run("partition-heal", seeds=[1, 1])


# ----- recovery ladder (satellite: cells that raise) ----------------------


def test_cell_crash_is_rescued_by_fresh_process_retry():
    from repro.faults.chaos import SweepChaos
    from repro.metrics.runhealth import RunHealth

    seeds = [1, 2, 3]
    golden = SweepRunner(jobs=1).run("partition-heal", seeds=seeds)
    health = RunHealth()
    chaos = SweepChaos(crash_seeds=(2,))
    report = SweepRunner(jobs=2, retries=1, backoff=0.0, chaos=chaos).run(
        "partition-heal", seeds=seeds, health=health
    )
    assert report.to_json() == golden.to_json()  # rescue is byte-exact
    assert health.cells["2"] == {"attempts": 2, "rescued_by": "retry"}
    assert health.cells["1"] == {"attempts": 1}
    assert health.retries == 1


def test_persistent_cell_crash_falls_back_inline():
    from repro.faults.chaos import SweepChaos
    from repro.metrics.runhealth import RunHealth

    seeds = [1, 2]
    golden = SweepRunner(jobs=1).run("partition-heal", seeds=seeds)
    health = RunHealth()
    chaos = SweepChaos(crash_seeds=(1,), crash_attempts=None)
    report = SweepRunner(jobs=2, retries=1, backoff=0.0, chaos=chaos).run(
        "partition-heal", seeds=seeds, health=health
    )
    assert report.to_json() == golden.to_json()
    assert health.cells["1"]["rescued_by"] == "inline-fallback"
    assert health.cells["1"]["attempts"] == 3


def test_unrescuable_cell_raises_sweep_cell_error():
    from repro.faults.chaos import SweepChaos
    from repro.scenarios.sweep import SweepCellError

    chaos = SweepChaos(crash_seeds=(1,), crash_attempts=None, spare_inline=False)
    runner = SweepRunner(jobs=2, retries=1, backoff=0.0, chaos=chaos)
    with pytest.raises(SweepCellError) as excinfo:
        runner.run("partition-heal", seeds=[1, 2])
    assert excinfo.value.seed == 1
    assert excinfo.value.attempts == 3
    assert "ChaosInjected" in excinfo.value.error


def test_jobs1_ladder_matches_pool_ladder():
    from repro.faults.chaos import SweepChaos

    seeds = [1, 2]
    golden = SweepRunner(jobs=1).run("partition-heal", seeds=seeds)
    chaos = SweepChaos(crash_seeds=(2,))
    inline = SweepRunner(jobs=1, retries=1, backoff=0.0, chaos=chaos).run(
        "partition-heal", seeds=seeds
    )
    assert inline.to_json() == golden.to_json()


def test_report_json_never_contains_health():
    """SweepReport.to_json is byte-compared across worker counts in CI;
    wall-clock health data must stay out of it."""
    from repro.faults.chaos import SweepChaos

    chaos = SweepChaos(crash_seeds=(2,))
    report = SweepRunner(jobs=2, retries=1, backoff=0.0, chaos=chaos).run(
        "partition-heal", seeds=[1, 2]
    )
    assert report.health is not None
    assert "health" not in json.loads(report.to_json())
    assert "run_health" not in json.loads(report.to_json())


def test_wedged_cell_times_out_into_the_ladder():
    from repro.faults.chaos import SweepChaos
    from repro.metrics.runhealth import RunHealth

    seeds = [1, 2]
    golden = SweepRunner(jobs=1).run("partition-heal", seeds=seeds)
    health = RunHealth()
    # Seed 2's first attempt sleeps far past the cell timeout; the
    # coordinator abandons the pool wait and the ladder re-runs it.
    chaos = SweepChaos(slow_seeds=(2,), slow_seconds=60.0)
    report = SweepRunner(
        jobs=2, retries=0, backoff=0.0, cell_timeout=5.0, chaos=chaos
    ).run("partition-heal", seeds=seeds, health=health)
    assert report.to_json() == golden.to_json()
    assert health.cells["2"]["rescued_by"] == "inline-fallback"
