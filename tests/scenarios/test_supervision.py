"""Tests for the supervised execution runtime: chaos-injected worker
failures, the retry/degrade recovery ladder, structured ShardWorkerError
reporting, sentinel propagation, teardown escalation, and CLI exit
codes. The invariant under test throughout: a run either recovers to
the **bit-identical** snapshot or raises a structured error within the
deadline — it never hangs and never silently diverges."""

import json

import pytest

from repro.faults.chaos import ChaosInjected, ShardChaos, parse_shard_chaos
from repro.gossip.config import EnhancedGossipConfig
from repro.metrics.runhealth import RunHealth
from repro.scenarios.runner import run_scenario
from repro.scenarios.sharded import run_scenario_sharded
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.scenarios.sharded import (
    PipeTransport,
    ShardWorkerError,
    SupervisionConfig,
)


def _tiny_spec(**overrides):
    defaults = dict(
        name="tiny-supervised",
        description="test spec",
        gossip=EnhancedGossipConfig.paper_f4,
        n_peers=12,
        workload=WorkloadSpec(blocks=2, idle_tail=0.0),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ----- chaos recovery: kill / raise / close -------------------------------


def test_killed_worker_raises_structured_error_without_retries():
    chaos = ShardChaos(shard_id=1, at_window=3, mode="kill")
    with pytest.raises(ShardWorkerError) as excinfo:
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="processes", chaos=chaos
        )
    error = excinfo.value
    assert error.shard_id == 1
    assert error.command == "window"
    assert error.last_window is not None
    # 137 mimics the OOM killer (128 + SIGKILL).
    assert error.exitcode == 137


def test_kill_at_window_recovers_bit_identical_with_one_retry():
    spec = _tiny_spec()
    golden = run_scenario_sharded(spec, seed=1, shards=2, mode="processes")
    chaos = ShardChaos(shard_id=1, at_window=3, mode="kill")
    health = RunHealth()
    recovered = run_scenario_sharded(
        spec, seed=1, shards=2, mode="processes",
        retries=1, backoff=0.0, chaos=chaos, health=health,
    )
    assert recovered.snapshot() == golden.snapshot()
    assert recovered.mode == "processes"
    assert health.attempts == 2
    assert health.restarts == 1
    assert health.errors and health.errors[0]["shard_id"] == 1


def test_raise_chaos_propagates_worker_traceback_through_sentinel():
    chaos = ShardChaos(shard_id=0, at_window=2, mode="raise")
    with pytest.raises(ShardWorkerError) as excinfo:
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="processes", chaos=chaos
        )
    error = excinfo.value
    assert error.shard_id == 0
    assert error.remote_traceback is not None
    assert "ChaosInjected" in error.remote_traceback
    assert "ChaosInjected" in str(error)


def test_raise_chaos_works_on_inline_transports_too():
    chaos = ShardChaos(shard_id=1, at_window=1, mode="raise")
    with pytest.raises(ShardWorkerError) as excinfo:
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="inline", chaos=chaos
        )
    assert excinfo.value.shard_id == 1
    assert "ChaosInjected" in (excinfo.value.remote_traceback or "")


def test_inline_mode_rejects_process_level_chaos():
    chaos = ShardChaos(shard_id=0, at_window=1, mode="kill")
    with pytest.raises(ValueError, match="needs worker processes"):
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="inline", chaos=chaos
        )


def test_closed_pipe_is_reported_not_hung():
    chaos = ShardChaos(shard_id=0, at_window=2, mode="close")
    with pytest.raises(ShardWorkerError) as excinfo:
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="processes", chaos=chaos
        )
    assert excinfo.value.shard_id == 0


def test_wedged_worker_hits_response_deadline():
    chaos = ShardChaos(shard_id=1, at_window=2, mode="wedge")
    supervision = SupervisionConfig(
        poll_interval=0.02, response_timeout=0.5,
        shutdown_join=0.2, terminate_join=0.5, kill_join=0.5,
    )
    with pytest.raises(ShardWorkerError, match="no response within"):
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="processes",
            chaos=chaos, supervision=supervision,
        )


def test_delay_chaos_is_tolerated_not_flagged():
    spec = _tiny_spec()
    golden = run_scenario_sharded(spec, seed=1, shards=2, mode="processes")
    chaos = ShardChaos(shard_id=0, at_window=2, mode="delay", delay_seconds=0.2)
    run = run_scenario_sharded(
        spec, seed=1, shards=2, mode="processes", chaos=chaos
    )
    assert run.snapshot() == golden.snapshot()


# ----- recovery ladder: retries and degradation ---------------------------


def test_persistent_failure_degrades_to_single_process():
    spec = _tiny_spec()
    single = run_scenario(spec, seed=1).snapshot()
    chaos = ShardChaos(shard_id=1, at_window=2, mode="raise", only_attempt=None)
    health = RunHealth()
    run = run_scenario_sharded(
        spec, seed=1, shards=2, mode="processes",
        retries=1, backoff=0.0, degrade=True, chaos=chaos, health=health,
    )
    assert run.mode == "degraded"
    assert run.snapshot() == single
    assert health.attempts == 3  # two sharded attempts + the degraded run
    assert health.restarts == 1
    assert len(health.degradations) == 1
    assert len(health.errors) == 2


def test_degrade_is_off_by_default():
    """Determinism gates must never silently receive a single-process
    snapshot where they asked for a sharded one."""
    chaos = ShardChaos(shard_id=0, at_window=1, mode="raise", only_attempt=None)
    with pytest.raises(ShardWorkerError):
        run_scenario_sharded(
            _tiny_spec(), seed=1, shards=2, mode="inline",
            retries=1, backoff=0.0, chaos=chaos,
        )


def test_health_records_window_progress():
    health = RunHealth()
    run_scenario_sharded(
        _tiny_spec(), seed=1, shards=2, mode="inline", health=health
    )
    report = health.to_dict()
    assert report["window_rounds"] > 0
    assert report["windows_completed"]["shard-0"] == report["window_rounds"]
    assert report["windows_completed"]["shard-1"] == report["window_rounds"]
    assert report["window_wall_total_s"] >= 0.0


# ----- teardown escalation (unit, no real processes) ----------------------


class _FakeConnection:
    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, command):
        self.sent.append(command)

    def close(self):
        self.closed = True

    def poll(self, timeout=None):
        return False


class _StubbornProcess:
    """Ignores terminate(); only kill() brings it down."""

    def __init__(self, survives_kill=False):
        self.alive = True
        self.terminated = False
        self.killed = False
        self.exitcode = None
        self._survives_kill = survives_kill

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        if self.terminated and self.killed and not self._survives_kill:
            self.alive = False
            self.exitcode = -9

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


def test_close_escalates_join_terminate_kill():
    process = _StubbornProcess()
    transport = PipeTransport(
        _FakeConnection(), process, shard_id=0,
        supervision=SupervisionConfig(
            shutdown_join=0.0, terminate_join=0.0, kill_join=0.0
        ),
    )
    transport.close()
    assert process.terminated and process.killed
    assert not process.is_alive()


def test_close_gives_up_on_kill_immune_process_without_hanging():
    process = _StubbornProcess(survives_kill=True)
    transport = PipeTransport(
        _FakeConnection(), process, shard_id=0,
        supervision=SupervisionConfig(
            shutdown_join=0.0, terminate_join=0.0, kill_join=0.0
        ),
    )
    transport.close()  # must return; a daemon zombie is the OS's problem
    assert process.killed


def test_abort_skips_graceful_exit():
    connection = _FakeConnection()
    process = _StubbornProcess()
    transport = PipeTransport(
        connection, process, shard_id=0,
        supervision=SupervisionConfig(
            shutdown_join=0.0, terminate_join=0.0, kill_join=0.0
        ),
    )
    transport.abort()
    assert ("exit",) not in connection.sent
    assert connection.closed
    assert process.killed


# ----- supervision config validation ---------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("poll_interval", float("nan")),
        ("poll_interval", float("inf")),
        ("poll_interval", 0.0),
        ("poll_interval", -0.05),
        ("response_timeout", float("nan")),
        ("response_timeout", float("inf")),
        ("response_timeout", 0.0),
        ("response_timeout", -1.0),
        ("shutdown_join", float("nan")),
        ("shutdown_join", -1.0),
        ("terminate_join", float("inf")),
        ("terminate_join", -0.5),
        ("kill_join", float("nan")),
        ("kill_join", -2.0),
    ],
)
def test_supervision_config_refuses_bad_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"SupervisionConfig.{field} must be finite"):
        SupervisionConfig(**{field: value})


def test_supervision_config_accepts_its_boundaries():
    config = SupervisionConfig(
        response_timeout=None, shutdown_join=0.0, terminate_join=0.0, kill_join=0.0
    )
    assert config.response_timeout is None


def test_cli_refuses_a_bad_response_timeout_as_usage(capsys):
    from repro.experiments.cli import main

    assert main(["run", "golden-original-30", "--response-timeout", "0"]) == 2
    assert "SupervisionConfig.response_timeout" in capsys.readouterr().err


# ----- chaos spec parsing --------------------------------------------------


def test_parse_shard_chaos_round_trip():
    chaos = parse_shard_chaos("kill:1@3")
    assert (chaos.mode, chaos.shard_id, chaos.at_window) == ("kill", 1, 3)
    assert chaos.only_attempt == 1
    every = parse_shard_chaos("wedge:0@2!")
    assert every.only_attempt is None
    with pytest.raises(ValueError, match="bad chaos spec"):
        parse_shard_chaos("kill-1-3")
    with pytest.raises(ValueError, match="unknown chaos mode"):
        parse_shard_chaos("vaporize:0@1")


# ----- CLI exit codes ------------------------------------------------------


def test_cli_exit_codes_distinguish_usage_from_worker_failure(capsys):
    from repro.experiments.cli import main

    assert main(["run", "no-such-scenario"]) == 2
    code = main([
        "run", "golden-original-30", "--shards", "2",
        "--chaos", "kill:1@2!", "--retries", "0", "--backoff", "0",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "worker failure" in err


def test_cli_run_json_embeds_run_health(capsys):
    from repro.experiments.cli import main

    assert main([
        "run", "golden-original-30", "--shards", "2", "--json",
        "--chaos", "kill:1@2", "--retries", "1", "--backoff", "0",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_health"]["restarts"] == 1
    assert payload["run_health"]["errors"][0]["shard_id"] == 1


def test_cli_health_json_written_even_on_failure(tmp_path):
    from repro.experiments.cli import main

    path = tmp_path / "health.json"
    code = main([
        "run", "golden-original-30", "--shards", "2",
        "--chaos", "kill:1@2!", "--retries", "0", "--backoff", "0",
        "--health-json", str(path),
    ])
    assert code == 3
    health = json.loads(path.read_text())
    assert health["attempts"] == 1
    assert health["errors"][0]["exitcode"] == 137


def test_chaos_injected_is_a_runtime_error():
    assert issubclass(ChaosInjected, RuntimeError)
