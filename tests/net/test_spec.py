"""The declarative latency layer: LatencySpec values, the kind registry,
model round-trips and NetworkConfig's spec resolution."""

import json
import math

import pytest

from repro.net.latency import (
    ConstantLatency,
    LanLatency,
    LatencyModel,
    MeasuredLatency,
    TopologyLatency,
    UniformLatency,
    WanLatency,
)
from repro.net.network import Network, NetworkConfig
from repro.net.spec import LatencySpec, latency_kinds, resolve_latency_spec
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams


# ------------------------------------------------------------ spec value


def test_spec_is_frozen_hashable_and_compares_by_value():
    a = LatencySpec.of("uniform", low=0.001, high=0.02)
    b = LatencySpec.of("uniform", high=0.02, low=0.001)
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    with pytest.raises(Exception):
        a.kind = "lan"


def test_spec_rejects_unfreezable_params():
    with pytest.raises(TypeError):
        LatencySpec.of("constant", delay=object())
    with pytest.raises(ValueError):
        LatencySpec(kind="")


def test_spec_json_round_trip():
    spec = LatencySpec.of(
        "topology",
        matrix=((("eu", "eu", (0.012, 0.001, 0.8)),)),
        default=(0.048, 0.006, 0.8),
    )
    revived = LatencySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert revived == spec


def test_nested_spec_json_round_trip():
    spec = LatencySpec.of(
        "wan",
        site_of={"n0": "eu", "n1": "us"},
        intra=LatencySpec.of("lan"),
        inter=LatencySpec.of("uniform", low=0.04, high=0.09),
    )
    revived = LatencySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
    assert revived == spec
    assert isinstance(LatencyModel.from_spec(revived), WanLatency)


# -------------------------------------------------------------- registry


def test_registry_exposes_all_shipped_kinds():
    assert set(latency_kinds()) >= {
        "constant", "lan", "measured", "topology", "uniform", "wan",
    }


def test_unknown_kind_raises_with_inventory():
    with pytest.raises(KeyError, match="constant"):
        resolve_latency_spec(LatencySpec.of("does-not-exist"))


@pytest.mark.parametrize(
    "model",
    [
        ConstantLatency(0.004),
        UniformLatency(0.001, 0.02),
        LanLatency(),
        TopologyLatency(
            {("eu", "eu"): (0.012, 0.001, 0.8), ("eu", "us"): (0.042, 0.004, 0.8)},
            default=(0.048, 0.006, 0.8),
        ),
        WanLatency(
            {"n0": "eu", "n1": "us"},
            intra=LanLatency(),
            inter=UniformLatency(0.04, 0.09),
        ),
        MeasuredLatency(locations=("Virginia", "Ireland", "Tokyo")),
    ],
    ids=lambda model: type(model).__name__,
)
def test_model_spec_round_trip_preserves_sampling(model):
    """model.spec() -> from_spec rebuilds a sampling-identical model."""
    spec = model.spec()
    rebuilt = LatencyModel.from_spec(spec)
    assert type(rebuilt) is type(model)
    assert rebuilt.spec() == spec
    rng_a = RandomStreams(7).stream("probe")
    rng_b = RandomStreams(7).stream("probe")
    pairs = [("n0", "n1"), ("n1", "n0"), ("n0", "n0")]
    original = [model.sample(rng_a, a, b) for a, b in pairs for _ in range(50)]
    revived = [rebuilt.sample(rng_b, a, b) for a, b in pairs for _ in range(50)]
    assert original == revived


def test_from_spec_rejects_non_model_builder_result():
    with pytest.raises(TypeError):
        LatencyModel.from_spec("not-a-spec")


# --------------------------------------------------- measured provider


def test_measured_latency_dataset():
    model = MeasuredLatency()
    assert "Virginia" in model.countries and "Sydney" in model.countries
    # One-way base latency is RTT/2; intra-location pairs are LAN-ish.
    far = model.get_latency("Tokyo", "SaoPaulo")
    near = model.get_latency("Virginia", "Virginia")
    assert 0.0 < near < 0.02 < far


def test_measured_latency_unknown_location_uses_default():
    model = MeasuredLatency(locations=("Virginia", "Ireland"))
    rng = RandomStreams(3).stream("probe")
    model.assign_regions({"n0": "Virginia", "n1": "Atlantis"})
    assert model.sample(rng, "n0", "n1") >= 0.08  # default 160 ms RTT / 2


# ------------------------------------------------ NetworkConfig plumbing


def test_network_config_defaults_to_lan():
    assert isinstance(NetworkConfig().latency, LanLatency)


def test_network_config_resolves_spec():
    config = NetworkConfig(latency=LatencySpec.of("constant", delay=0.004))
    assert isinstance(config.latency, ConstantLatency)


@pytest.mark.parametrize(
    "spec",
    [
        LatencySpec.of("constant", delay=math.nan),
        LatencySpec.of("lan", base=math.nan),
        LatencySpec.of("lan", jitter_sigma=math.nan),
        LatencySpec.of("topology", default=math.nan),
        LatencySpec.of("topology", matrix=(("eu", "us", (0.04, math.nan)),)),
    ],
    ids=["constant", "lan-base", "lan-sigma", "topology-default", "topology-matrix"],
)
def test_nan_latency_params_are_rejected_when_resolved(spec):
    """A NaN delay must fail at config construction, not surface mid-run
    as ``invalid event time: nan``."""
    with pytest.raises(ValueError):
        NetworkConfig(latency=spec)


def test_network_rejects_nan_bandwidth():
    with pytest.raises(ValueError):
        Network(Simulator(), RandomStreams(1), NetworkConfig(bandwidth=math.nan))


def test_network_config_accepts_model_instance():
    model = ConstantLatency(0.004)
    assert NetworkConfig(latency=model).latency is model


def test_network_config_replace_preserves_resolved_model():
    """dataclasses.replace round-trips the already-resolved model without
    re-resolution (the builders do this when merging region placements)."""
    import dataclasses

    config = NetworkConfig(latency=LatencySpec.of("lan"))
    model = config.latency
    derived = dataclasses.replace(config, regions={"n0": "eu"})
    assert derived.latency is model


def test_network_config_has_no_latency_model_keyword():
    """The one-release ``latency_model=`` constructor alias is gone."""
    with pytest.raises(TypeError):
        NetworkConfig(latency_model=ConstantLatency(0.004))
