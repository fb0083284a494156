"""Unit tests for the RunHealth supervision ledger."""

import json

from repro.metrics.runhealth import RunHealth
from repro.scenarios.sharded import ShardWorkerError


def test_record_round_accumulates_per_shard_progress():
    health = RunHealth()
    health.record_round("window", [0, 1], 0.5)
    health.record_round("window", [0, 1], 1.5)
    health.record_round("tick", [0, 1], 0.1)
    assert health.window_rounds == 2
    assert health.window_wall_total == 2.0
    assert health.window_wall_max == 1.5
    assert health.windows_completed == {"shard-0": 2, "shard-1": 2}
    assert health.tick_rounds == 1
    assert health.ticks_completed == {"shard-0": 1, "shard-1": 1}


def test_record_error_reads_structured_fields():
    health = RunHealth()
    health.record_error(
        ShardWorkerError(
            "worker died", shard_id=2, last_window=0.5,
            command="window", exitcode=137,
        )
    )
    health.record_error(RuntimeError("plain failure"))
    assert health.errors[0] == {
        "reason": "worker died",
        "shard_id": 2,
        "last_window": 0.5,
        "command": "window",
        "exitcode": 137,
    }
    assert health.errors[1]["reason"] == "plain failure"
    assert health.errors[1]["shard_id"] is None


def test_retries_counts_extra_cell_attempts():
    health = RunHealth()
    health.record_cell(1, 1)
    health.record_cell(2, 3, rescued_by="inline-fallback")
    health.record_cell(3, 2, rescued_by="retry")
    assert health.retries == 3
    assert health.cells["2"]["rescued_by"] == "inline-fallback"
    assert "rescued_by" not in health.cells["1"]


def test_to_dict_is_json_stable():
    health = RunHealth()
    health.record_round("window", [1, 0], 0.25)
    health.record_cell(10, 2, error="boom")
    health.record_degradation("gave up")
    payload = health.to_dict()
    # Round-trips through JSON and sorts deterministically.
    assert json.loads(json.dumps(payload, sort_keys=True)) == json.loads(
        json.dumps(payload, sort_keys=True)
    )
    assert list(payload["windows_completed"]) == ["shard-0", "shard-1"]
    assert payload["window_wall_mean_s"] == 0.25
    assert payload["degradations"] == ["gave up"]
    assert payload["cells"]["10"]["error"] == "boom"


def test_to_dict_omits_cells_for_pure_sharded_runs():
    assert "cells" not in RunHealth().to_dict()
