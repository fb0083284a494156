"""The two-set verdict: ok, regressed, unresolved."""

from __future__ import annotations

from bench.compare import compare, verdict

STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


def scaled(values, factor):
    return [value * factor for value in values]


def test_same_code_is_ok():
    row = verdict(STEADY, scaled(STEADY, 1.02), "lower", 0.10)
    assert row["status"] == "ok" and abs(row["worse_by"] - 0.02) < 1e-9


def test_worse_by_more_than_the_bound_regresses_in_either_direction():
    assert verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.10)["status"] == "regressed"
    assert verdict(STEADY, scaled(STEADY, 0.8), "higher", 0.10)["status"] == "regressed"
    assert verdict(STEADY, scaled(STEADY, 0.8), "lower", 0.10)["status"] == "ok"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.5, 11.0, 10.5, 12.5]
    assert verdict(noisy, scaled(noisy, 1.01), "lower", 0.10)["status"] == "unresolved"
    assert verdict(noisy, scaled(noisy, 0.4), "lower", 0.10)["status"] == "ok"


def test_compare_pairs_rows_by_workload_and_metric(declaration):
    def runs(factor):
        return {"runs": [
            {"workload": "enh-lan-1k", "result": {"correct": True, "metrics": {
                "wall_s": {"value": value * factor, "unit": "s"}}}}
            for value in STEADY
        ]}

    rows = compare(runs(1.0), runs(1.5), declaration)
    assert [(row["workload"], row["metric"], row["status"]) for row in rows] == [
        ("enh-lan-1k", "wall_s", "regressed")
    ]
