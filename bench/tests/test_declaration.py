"""BENCHMARK.json keeps to the contract and matches the code."""

from __future__ import annotations

import re

from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_shape(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert declaration["paths"] == ["bench"]
    assert declaration["command"] == ["python3", "bench/run.py"]
    assert isinstance(declaration["run_seconds"], int) and 1 <= declaration["run_seconds"] <= 60


def test_workloads_match_the_registry(declaration):
    declared = {entry["name"]: entry["why"] for entry in declaration["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}
    assert 2 <= len(declared) <= 8
    for entry in declaration["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_declarations(declaration):
    end_to_end, per_layer = declaration["end_to_end"], declaration["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer] + [w["name"] for w in declaration["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in end_to_end if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in end_to_end)
