"""ScenarioSpec / RegionTopology validation and derivation."""

import pickle
from dataclasses import replace

import pytest

from repro.gossip.config import EnhancedGossipConfig
from repro.net.latency import LatencyModel, LatencySpec
from repro.scenarios import LinkSpec, RegionTopology, ScenarioSpec, WorkloadSpec, get_scenario


def minimal_spec(**overrides):
    base = dict(
        name="t", description="test", gossip=EnhancedGossipConfig.paper_f4
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_spec_is_frozen_and_hashable():
    spec = minimal_spec()
    with pytest.raises(Exception):
        spec.n_peers = 5
    assert hash(spec)


def test_spec_is_picklable():
    spec = minimal_spec(
        topology=RegionTopology(regions=("eu", "us")), organizations=2
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.gossip() == EnhancedGossipConfig.paper_f4()


def test_spec_validation():
    with pytest.raises(ValueError):
        minimal_spec(n_peers=1)
    with pytest.raises(ValueError):
        minimal_spec(organizations=0)
    with pytest.raises(ValueError):
        minimal_spec(placement=(("org0", "eu"),))  # placement without topology
    with pytest.raises(ValueError):
        minimal_spec(
            topology=RegionTopology(regions=("eu",)),
            placement=(("org0", "mars"),),
        )


def test_org_regions_round_robin_default():
    spec = minimal_spec(
        organizations=3, topology=RegionTopology(regions=("eu", "us"))
    )
    assert spec.org_regions() == {"org0": "eu", "org1": "us", "org2": "eu"}


def test_org_regions_explicit_placement():
    spec = minimal_spec(
        organizations=2,
        topology=RegionTopology(regions=("eu", "us")),
        placement=(("org0", "us"), ("org1", "us")),
    )
    assert spec.org_regions() == {"org0": "us", "org1": "us"}


def test_org_regions_none_without_topology():
    assert minimal_spec().org_regions() is None


def test_with_overrides_revalidates():
    spec = minimal_spec()
    assert spec.with_overrides(n_peers=42).n_peers == 42
    with pytest.raises(ValueError):
        spec.with_overrides(n_peers=1)


def test_topology_validation():
    with pytest.raises(ValueError):
        RegionTopology(regions=())
    with pytest.raises(ValueError):
        RegionTopology(regions=("eu", "eu"))
    with pytest.raises(ValueError):
        RegionTopology(regions=("eu",), links=(("eu", "us", LinkSpec(0.01)),))
    with pytest.raises(ValueError):
        RegionTopology(regions=("eu",), orderer_region="us")
    with pytest.raises(ValueError):
        LinkSpec(-0.1)


def test_placement_in_a_misspelled_measured_region_is_refused():
    """A region-aware ``latency=`` spec is checked like ``topology=``: a
    misspelled region fails at construction, before any event runs,
    instead of silently putting the org on the default 160 ms RTT."""
    storm = get_scenario("fat-block-storm")
    placement = (
        ("org0", "Virgina"), ("org1", "Ireland"), ("org2", "Tokyo"), ("org3", "Sydney")
    )
    with pytest.raises(
        ValueError,
        match=r"'org0' in unknown region 'Virgina'.*\['Ireland', 'Sydney', 'Tokyo', 'Virginia'\]",
    ):
        replace(storm, placement=placement)


def test_placement_is_checked_against_a_topology_spec_matrix():
    spec = LatencySpec.of("topology", matrix=(("eu", "eu", 0.01), ("eu", "us", 0.04)))
    assert minimal_spec(latency=spec, placement=(("org0", "us"),)).org_regions() == {
        "org0": "us"
    }
    with pytest.raises(ValueError, match="'ap'"):
        minimal_spec(latency=spec, placement=(("org0", "ap"),))


def test_topology_builds_latency_model():
    topology = RegionTopology(
        regions=("eu", "us"),
        links=(("eu", "us", LinkSpec(0.040)),),
        intra=LinkSpec(0.001),
    )
    model = LatencyModel.from_spec(topology.latency_spec())
    model.assign_regions({"a": "eu", "b": "eu", "c": "us"})
    import random

    rng = random.Random(1)
    assert model.sample(rng, "a", "b") == 0.001
    assert model.sample(rng, "a", "c") == 0.040


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(blocks=0)
    with pytest.raises(ValueError):
        WorkloadSpec(block_period=0.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "field, build",
    [
        ("base", lambda: LinkSpec(base=NAN)),
        ("base", lambda: LinkSpec(base=INF)),
        ("jitter_sigma", lambda: LinkSpec(0.01, jitter_sigma=-INF)),
        ("block_period", lambda: WorkloadSpec(block_period=NAN)),
        ("tx_size", lambda: WorkloadSpec(tx_size=-5000)),
        ("idle_tail", lambda: WorkloadSpec(idle_tail=-1.0)),
        ("grace_period", lambda: WorkloadSpec(grace_period=NAN)),
        ("per_tx_validation_time", lambda: minimal_spec(per_tx_validation_time=-1.0)),
        ("per_tx_validation_time", lambda: minimal_spec(per_tx_validation_time=INF)),
    ],
)
def test_non_finite_or_negative_values_are_refused_by_name(field, build):
    with pytest.raises(ValueError, match=field):
        build()
