"""Unit tests for latency models."""

import gc
import random
import tracemalloc

import pytest

from repro.net.latency import ConstantLatency, LanLatency, LatencyModel


@pytest.fixture
def rng():
    return random.Random(1)


def test_constant_latency(rng):
    model = ConstantLatency(0.005)
    assert model.sample(rng, "a", "b") == 0.005


def test_constant_latency_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-0.001)


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


def make_sites(inter: float):
    """One site per datacenter: a diagonal entry per site, the inter-site
    delay as the default (the form of examples/multi_organization.py)."""
    return TopologyLatency(
        matrix={("dc1", "dc1"): 0.001, ("dc2", "dc2"): 0.001},
        default=inter,
        region_of={"a": "dc1", "b": "dc1", "c": "dc2"},
    )


def test_sites_intra_vs_inter(rng):
    model = make_sites(0.040)
    assert model.sample(rng, "a", "b") == 0.001
    assert model.sample(rng, "a", "c") == 0.040
    assert model.sample(rng, "c", "b") == 0.040


def test_sites_unplaced_nodes_are_remote(rng):
    model = make_sites(0.040)
    assert model.sample(rng, "orderer", "a") == 0.040
    assert model.sample(rng, "orderer", "client") == 0.040


def test_topology_regions_are_the_matrix_names():
    assert make_topology().regions == {"eu", "us"}
    assert make_sites(0.040).regions == {"dc1", "dc2"}


def test_topology_param_normalization():
    model = TopologyLatency(matrix={("r", "r"): 0.005}, default=(0.01, 0.002))
    rng = random.Random(1)
    assert model.sample(rng, "n1", "n2") >= 0.01  # default has jitter
    with pytest.raises(ValueError):
        TopologyLatency(matrix={("r", "r"): (-0.001,)})
    with pytest.raises(ValueError):
        TopologyLatency(matrix={("r", "r"): (0.1, 0.1, 0.1, 0.1)})


# ----- latency inputs, checked like data -------------------------------------

import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402

from repro.net.latency import DEFAULT_MEASURED_DATASET  # noqa: E402
from repro.scenarios import get_scenario, iter_scenarios  # noqa: E402


@pytest.fixture(scope="module")
def measured():
    with open(DEFAULT_MEASURED_DATASET, encoding="utf-8") as handle:
        return json.load(handle)


def rtt(measured, loc_a, loc_b):
    """The pair's RTT in either order (``None`` when neither is given)."""
    rtts = measured["rtt_ms"]
    return rtts.get(f"{loc_a}|{loc_b}", rtts.get(f"{loc_b}|{loc_a}"))


def test_measured_dataset_covers_every_location_pair(measured):
    pairs = list(itertools.combinations_with_replacement(measured["locations"], 2))
    assert [pair for pair in pairs if rtt(measured, *pair) is None] == []
    assert len(pairs) == 36  # 8 locations: 28 pairs and 8 diagonals


def test_measured_dataset_names_only_known_locations(measured):
    known = set(measured["locations"])
    for key in measured["rtt_ms"]:
        names = key.split("|")
        assert len(names) == 2 and set(names) <= known, key


def test_measured_dataset_pairs_given_in_both_orders_agree(measured):
    rtts = measured["rtt_ms"]
    for key, value in rtts.items():
        loc_a, loc_b = key.split("|")
        assert rtts.get(f"{loc_b}|{loc_a}", value) == value, key


def test_measured_dataset_intra_location_rtt_is_below_its_inter_location_rtts(measured):
    for loc in measured["locations"]:
        intra = rtt(measured, loc, loc)
        for other in measured["locations"]:
            if other != loc:
                assert intra < rtt(measured, loc, other), (loc, other)


def test_registered_topologies_keep_intra_region_links_fastest():
    for spec in iter_scenarios():
        if spec.topology is not None:
            inter = [link.base for _, _, link in spec.topology.links]
            inter.append(spec.topology.default_inter.base)
            assert spec.topology.intra.base < min(inter), spec.name


# The four kinds configured as in-tree code builds them: the LAN default,
# wan-3-region's topology, the four-location measured model of
# fat-block-storm (and of the congested-wan-600 benchmark workload), and a
# constant. Each entry is (model, the regions it is placed over).
def _lan():
    return LanLatency(), ()


def _wan_3_region():
    topology = get_scenario("wan-3-region").topology
    return LatencyModel.from_spec(topology.latency_spec()), topology.regions


def _measured_4():
    spec = get_scenario("fat-block-storm")
    return LatencyModel.from_spec(spec.latency), tuple(region for _, region in spec.placement)


def _constant():
    return ConstantLatency(0.05), ()


@pytest.mark.parametrize("configure", [_lan, _wan_3_region, _measured_4, _constant])
def test_min_delay_lower_bounds_bound_draws(configure):
    """The shard lookahead rests on this (docs/sharding.md, "Lookahead
    derivation"): over 10^5 seeded draws of ``bind()``, no delay falls
    below ``min_delay()``, nor below ``min_delay_between_regions(a, b)``
    for its region pair, unplaced endpoints (the default) included. The
    bounds are also attained within 10 ms, so none is vacuous."""
    model, regions = configure()
    region_of = {f"node-{region}": region for region in regions}
    if regions:
        model.assign_regions(region_of)
    nodes = ["unplaced", *region_of]
    pairs = [(src, dst) for src in nodes for dst in nodes]
    sampler = model.bind(random.Random(2024))
    lowest = dict.fromkeys(pairs, math.inf)
    for index in range(100_000):
        pair = pairs[index % len(pairs)]
        delay = sampler(*pair)
        if delay < lowest[pair]:
            lowest[pair] = delay
    floor = model.min_delay()
    assert floor <= min(lowest.values()) < floor + 0.01
    if regions:
        for (src, dst), low in lowest.items():
            bound = model.min_delay_between_regions(region_of.get(src), region_of.get(dst))
            assert bound <= low < bound + 0.01, (src, dst)


def test_a_bound_lan_sampler_costs_a_method_and_a_tuple():
    """A sender's sampler is the module-level kernel bound to its
    parameters (``types.MethodType`` over a 4-tuple), not a closure with
    a cell per parameter: 608 B per sender before, ~216 B now."""
    model = LanLatency()
    rngs = [random.Random(seed) for seed in range(1000)]
    gc.collect()
    tracemalloc.start()
    try:
        samplers = [model.bind(rng) for rng in rngs]
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced / len(samplers) <= 280
