"""Unit tests for latency models."""

import random

import pytest

from repro.net.latency import ConstantLatency, LanLatency, LatencyModel, UniformLatency


@pytest.fixture
def rng():
    return random.Random(1)


def test_constant_latency(rng):
    model = ConstantLatency(0.005)
    assert model.sample(rng, "a", "b") == 0.005


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-0.001)


def test_uniform_latency_within_bounds(rng):
    model = UniformLatency(0.001, 0.002)
    for _ in range(100):
        value = model.sample(rng, "a", "b")
        assert 0.001 <= value <= 0.002


def test_uniform_latency_invalid_bounds():
    with pytest.raises(ValueError):
        UniformLatency(0.002, 0.001)
    with pytest.raises(ValueError):
        UniformLatency(-0.001, 0.002)


def test_lan_latency_at_least_base(rng):
    model = LanLatency(base=0.01, jitter_median=0.001)
    for _ in range(200):
        assert model.sample(rng, "a", "b") >= 0.01


def test_lan_latency_zero_jitter_is_deterministic(rng):
    model = LanLatency(base=0.01, jitter_median=0.0)
    samples = {model.sample(rng, "a", "b") for _ in range(10)}
    assert samples == {0.01}


def test_lan_latency_jitter_median_approximate(rng):
    model = LanLatency(base=0.0, jitter_median=0.004, jitter_sigma=0.5)
    samples = sorted(model.sample(rng, "a", "b") for _ in range(4001))
    median = samples[len(samples) // 2]
    assert 0.003 < median < 0.005


def test_lan_latency_has_tail(rng):
    model = LanLatency(base=0.0, jitter_median=0.001, jitter_sigma=1.0)
    samples = [model.sample(rng, "a", "b") for _ in range(5000)]
    assert max(samples) > 5 * (sum(samples) / len(samples))


def test_lan_latency_rejects_negative_params():
    with pytest.raises(ValueError):
        LanLatency(base=-0.001)


def test_base_model_is_abstract(rng):
    with pytest.raises(NotImplementedError):
        LatencyModel().sample(rng, "a", "b")


def test_wan_latency_intra_vs_inter(rng):
    from repro.net.latency import WanLatency

    model = WanLatency(
        site_of={"a": "dc1", "b": "dc1", "c": "dc2"},
        intra=ConstantLatency(0.001),
        inter=ConstantLatency(0.040),
    )
    assert model.sample(rng, "a", "b") == 0.001
    assert model.sample(rng, "a", "c") == 0.040
    assert model.sample(rng, "c", "b") == 0.040


def test_wan_latency_unmapped_nodes_are_remote(rng):
    from repro.net.latency import WanLatency

    model = WanLatency(
        site_of={"a": "dc1"},
        intra=ConstantLatency(0.001),
        inter=ConstantLatency(0.040),
    )
    assert model.sample(rng, "orderer", "a") == 0.040
    assert model.sample(rng, "orderer", "client") == 0.040


# ----- TopologyLatency -----------------------------------------------------

from repro.net.latency import TopologyLatency  # noqa: E402


def make_topology():
    return TopologyLatency(
        matrix={
            ("eu", "eu"): (0.001,),
            ("us", "us"): (0.002,),
            ("eu", "us"): (0.040,),
        },
        default=(0.100,),
        region_of={"a": "eu", "b": "eu", "c": "us"},
    )


def test_topology_intra_and_inter_pairs(rng):
    model = make_topology()
    assert model.sample(rng, "a", "b") == 0.001
    assert model.sample(rng, "a", "c") == 0.040
    assert model.sample(rng, "c", "c2") == 0.100  # unmapped node -> default


def test_topology_lookup_is_symmetric(rng):
    model = make_topology()
    # Only (eu, us) is declared; (us, eu) resolves through the swap.
    assert model.sample(rng, "c", "a") == 0.040


def test_topology_unknown_pair_uses_default(rng):
    model = TopologyLatency(
        matrix={("eu", "eu"): (0.001,)},
        default=(0.123,),
        region_of={"a": "eu", "z": "ap"},
    )
    assert model.sample(rng, "a", "z") == 0.123


def test_topology_deferred_region_assignment(rng):
    model = TopologyLatency(matrix={("eu", "eu"): (0.001,)}, default=(0.050,))
    assert model.sample(rng, "a", "b") == 0.050  # nobody placed yet
    model.assign_regions({"a": "eu", "b": "eu"})
    assert model.sample(rng, "a", "b") == 0.001  # placement is read per draw
    assert model.region_of("a") == "eu"


def test_topology_bound_sampler_matches_sample_bitwise():
    """The RNG-order contract: bind() must consume the rng like sample()."""
    model = TopologyLatency(
        matrix={("eu", "eu"): (0.001, 0.0005, 0.7), ("eu", "us"): (0.04, 0.002, 0.9)},
        default=(0.1, 0.001, 0.8),
        region_of={"a": "eu", "b": "eu", "c": "us"},
    )
    pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("a", "x"), ("b", "a")] * 40
    rng1, rng2 = random.Random(7), random.Random(7)
    direct = [model.sample(rng1, src, dst) for src, dst in pairs]
    bound = model.bind(rng2)
    via_bind = [bound(src, dst) for src, dst in pairs]
    assert direct == via_bind
    assert rng1.getstate() == rng2.getstate()


def test_topology_bound_sampler_consumes_the_rng_like_sample_over_10k_pairs():
    """bind() inlines the lognormal draw; over 10k pairs mixing jittered,
    base-only, swapped, default and unplaced endpoints it must return
    sample()'s floats bit-for-bit and leave the generator in sample()'s
    state (sample() is the stdlib ``lognormvariate``)."""
    model = TopologyLatency(
        matrix={
            ("eu", "eu"): (0.001, 0.0005, 0.7),
            ("eu", "us"): (0.04,),  # base only: no draw
            ("us", "ap"): (0.09, 0.004, 0.9),
            ("ap", "ap"): (0.002, 0.0, 0.8),  # zero median: no draw either
        },
        default=(0.1, 0.001, 0.8),
        region_of={"a": "eu", "b": "eu", "c": "us", "d": "ap", "e": "ap"},
    )
    nodes = ["a", "b", "c", "d", "e", "unplaced"]
    picker = random.Random(11)
    pairs = [(picker.choice(nodes), picker.choice(nodes)) for _ in range(10_000)]
    reference_rng, bound_rng = random.Random(5), random.Random(5)
    reference = [model.sample(reference_rng, src, dst) for src, dst in pairs]
    bound = model.bind(bound_rng)
    assert [bound(src, dst) for src, dst in pairs] == reference
    assert bound_rng.getstate() == reference_rng.getstate()
    assert len(set(reference)) > 2_000  # jittered pairs really drew


def test_topology_param_normalization():
    model = TopologyLatency(matrix={("r", "r"): 0.005}, default=(0.01, 0.002))
    rng = random.Random(1)
    assert model.sample(rng, "n1", "n2") >= 0.01  # default has jitter
    with pytest.raises(ValueError):
        TopologyLatency(matrix={("r", "r"): (-0.001,)})
    with pytest.raises(ValueError):
        TopologyLatency(matrix={("r", "r"): (0.1, 0.1, 0.1, 0.1)})
