"""The collector scope: a run pauses, freezes, stays paused through its
loop and always restores."""

import gc
import weakref

import pytest

from repro.experiments.conflicts import ConflictExperimentConfig, run_conflict_experiment
from repro.gossip.config import EnhancedGossipConfig
from repro.scenarios.runner import run_scenario
from repro.scenarios.sharded import _shard_worker_main, run_scenario_sharded
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.simulation import Simulator, collector


@pytest.fixture(autouse=True)
def pristine_collector():
    """Every test starts enabled and unfrozen, and leaves it that way."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    gc.unfreeze()
    gc.enable()


def _spec(**workload):
    return ScenarioSpec(
        name="collector-probe",
        description="test spec",
        gossip=EnhancedGossipConfig.paper_f4,
        n_peers=12,
        background=True,
        workload=WorkloadSpec(blocks=2, idle_tail=0.0, **workload),
    )


def test_deployment_scope_pauses_then_freezes_then_restores():
    with collector.deployment() as built:
        assert not gc.isenabled() and gc.get_freeze_count() == 0
        built()
        assert not gc.isenabled() and gc.get_freeze_count() > 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def _tiny_conflict_cell():
    return run_conflict_experiment(
        ConflictExperimentConfig(
            gossip=EnhancedGossipConfig.paper_f4(),
            block_period=0.5,
            n_peers=12,
            keys=3,
            increments_per_key=2,
            tx_rate=10.0,
            per_tx_validation_time=0.01,
        )
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_scenario(_spec(), seed=1),
        lambda: run_scenario_sharded(_spec(), seed=1, shards=2, mode="inline"),
        _tiny_conflict_cell,
    ],
    ids=["dissemination", "sharded-inline", "conflicts"],
)
def test_every_run_owner_loops_paused_over_a_frozen_deployment(monkeypatch, run):
    seen = []
    for name in ("run", "run_window"):
        original = getattr(Simulator, name)

        def probe(self, *args, _original=original, **kwargs):
            if not seen:  # the first loop entry; get_freeze_count() walks the heap
                seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, name, probe)
    run()
    assert seen == [(False, True)]
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_shard_worker_serves_commands_over_a_frozen_deployment():
    seen = []

    class Conn:
        def recv(self):
            seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
            return ("exit", None, None)

    _shard_worker_main(Conn(), _spec(), 1, 2, 0, False)
    assert seen == [(False, True)]
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_run_restores_the_collector_when_it_raises():
    with pytest.raises(TimeoutError):
        run_scenario(_spec(grace_period=0.0), seed=1)
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_caller_who_disabled_the_collector_finds_it_disabled():
    gc.disable()
    run_scenario(_spec(), seed=1)
    assert not gc.isenabled() and gc.get_freeze_count() == 0


def test_caller_who_froze_objects_finds_them_frozen():
    gc.freeze()
    frozen = gc.get_freeze_count()
    assert frozen > 0
    run_scenario(_spec(), seed=1)
    assert gc.isenabled() and gc.get_freeze_count() == frozen


def test_consecutive_runs_do_not_accumulate_frozen_deployments():
    first = run_scenario(_spec(), seed=1)
    second = run_scenario(_spec(), seed=2)
    assert first.result.net is not second.result.net  # both still alive
    assert gc.get_freeze_count() == 0


def test_a_dropped_deployment_does_not_outlive_the_next_run():
    """Frozen along with the next run's deployment, the cycles of a dropped
    one would be invisible to every collection of every later run: a sweep
    in one process would keep them all."""
    first = run_scenario(_spec(), seed=1)
    dropped = weakref.ref(first.result.net.network)
    del first
    run_scenario(_spec(), seed=2)
    assert dropped() is None


def test_collector_state_cannot_reach_physics():
    expected = run_scenario("golden-enhanced-50-bg", seed=1).snapshot()
    gc.disable()
    assert run_scenario("golden-enhanced-50-bg", seed=1).snapshot() == expected
