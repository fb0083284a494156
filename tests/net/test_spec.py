"""The declarative latency layer: LatencySpec values, the closed table of
four kinds behind ``LatencyModel.from_spec``, and NetworkConfig's spec
resolution."""

import math
import random

import pytest

from repro.net.latency import (
    ConstantLatency,
    LanLatency,
    LatencyModel,
    LatencySpec,
    MeasuredLatency,
    TopologyLatency,
)
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams, derive_seed


# ------------------------------------------------------------ spec value


def test_spec_is_frozen_hashable_and_compares_by_value():
    a = LatencySpec.of("lan", base=0.001, jitter_median=0.02)
    b = LatencySpec.of("lan", jitter_median=0.02, base=0.001)
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    with pytest.raises(Exception):
        a.kind = "constant"


def test_spec_freezes_sequences_into_tuples():
    spec = LatencySpec.of("topology", matrix=[["eu", "eu", [0.012, 0.001, 0.8]]])
    assert spec == LatencySpec.of("topology", matrix=(("eu", "eu", (0.012, 0.001, 0.8)),))
    hash(spec)


def test_spec_rejects_unfreezable_params():
    with pytest.raises(TypeError):
        LatencySpec.of("constant", delay=object())
    with pytest.raises(TypeError):  # no kind takes a mapping
        LatencySpec.of("topology", matrix={("eu", "eu"): 0.012})
    with pytest.raises(ValueError):
        LatencySpec(kind="")


# ------------------------------------------------------- the four kinds

# One configuration per kind, as (spec params, the same model built directly).
KINDS = {
    "constant": ({"delay": 0.004}, lambda: ConstantLatency(0.004)),
    "lan": ({}, LanLatency),
    "topology": (
        {
            "matrix": (("eu", "eu", (0.012, 0.001, 0.8)), ("eu", "us", (0.042, 0.004, 0.8))),
            "default": (0.048, 0.006, 0.8),
        },
        lambda: TopologyLatency(
            {("eu", "eu"): (0.012, 0.001, 0.8), ("eu", "us"): (0.042, 0.004, 0.8)},
            default=(0.048, 0.006, 0.8),
        ),
    ),
    "measured": (
        {"locations": ("Virginia", "Ireland", "Tokyo")},
        lambda: MeasuredLatency(locations=("Virginia", "Ireland", "Tokyo")),
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_from_spec_builds_the_model_of_its_kind(kind):
    """``from_spec(LatencySpec.of(kind, **params))`` is the directly built
    model: same class, and the same 64 floats from a same-seeded stream."""
    params, build = KINDS[kind]
    direct = build()
    from_spec = LatencyModel.from_spec(LatencySpec.of(kind, **params))
    assert type(from_spec) is type(direct)
    placement = {"n0": "eu", "n1": "us", "n2": "Virginia", "n3": "Tokyo"}
    for model in (direct, from_spec):
        if isinstance(model, TopologyLatency):
            model.assign_regions(placement)
    pairs = [("n0", "n1"), ("n0", "n0"), ("n2", "n3"), ("n3", "n9")]
    draws = []
    for model in (direct, from_spec):
        sampler = model.bind(RandomStreams(5).uniform("probe"))
        draws.append([sampler(*pairs[index % len(pairs)]) for index in range(64)])
    assert draws[0] == draws[1]


def test_unknown_kind_raises_listing_the_four_kinds():
    with pytest.raises(KeyError, match="constant, lan, measured, topology"):
        LatencyModel.from_spec(LatencySpec.of("uniform", low=0.001, high=0.02))


def test_from_spec_rejects_a_non_spec():
    with pytest.raises(TypeError):
        LatencyModel.from_spec("not-a-spec")


# --------------------------------------------------- measured provider


def test_measured_latency_dataset():
    model = MeasuredLatency()
    assert {"Virginia", "Sydney"} <= model.regions
    # One-way base latency is RTT/2; intra-location pairs are LAN-ish.
    far = model.min_delay_between_regions("Tokyo", "SaoPaulo")
    near = model.min_delay_between_regions("Virginia", "Virginia")
    assert 0.0 < near < 0.02 < far


def test_measured_latency_unknown_location_uses_default():
    model = MeasuredLatency(locations=("Virginia", "Ireland"))
    rng = random.Random(derive_seed(3, "probe"))
    model.assign_regions({"n0": "Virginia", "n1": "Atlantis"})
    assert model.sample(rng, "n0", "n1") >= 0.08  # default 160 ms RTT / 2


def test_measured_latency_refuses_unknown_locations():
    with pytest.raises(ValueError, match="Virgina"):
        MeasuredLatency(locations=("Virgina", "Ireland"))


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


def test_network_config_rejects_other_latency_values():
    with pytest.raises(TypeError):
        NetworkConfig(latency=0.004)


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
