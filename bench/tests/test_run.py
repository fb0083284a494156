"""The benchmark end to end on tiny workloads: parent, fresh child
processes, checks, output schema and exit code."""

from __future__ import annotations

import json

import pytest

from bench import run
from bench.tests.tiny import tiny_rep


def run_cli(capsys, workload: str, trace: int):
    code = run.main([
        "--registry", "bench.tests.tiny", "--workload", workload,
        "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", ["tiny-enh", "tiny-table2", "tiny-wan", "tiny-shard2"])
def test_end_to_end_output(capsys, declaration, workload):
    code, result, printed = run_cli(capsys, workload, trace=0)
    assert code == 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    units = {metric["name"]: metric["unit"] for metric in declaration["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} " in line for line in printed)


def test_per_layer_output(capsys, declaration):
    code, result, _ = run_cli(capsys, "tiny-shard2", trace=1)
    assert code == 0 and result["correct"] is True
    units = {metric["name"]: metric["unit"] for metric in declaration["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    # The sharded run was checked against (and timed beside) a single-process one.
    assert result["metrics"]["simulation.sharded.speedup"]["value"] > 0
    assert result["metrics"]["simulation.sharded.window_rounds"]["value"] > 0


def test_starved_run_fails(capsys):
    code, result, printed = run_cli(capsys, "tiny-starved", trace=0)
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith("check failed: ") for line in printed)


def test_same_seed_same_physics_traced_or_not():
    first, again, traced = tiny_rep("tiny-wan"), tiny_rep("tiny-wan"), tiny_rep("tiny-wan", trace=True)
    other_seed = tiny_rep("tiny-wan", seed=2)
    assert first["failed"] == 0 and not first["problems"]
    assert first["digest"] == again["digest"] == traced["digest"]
    assert other_seed["digest"] != first["digest"]
