"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pe import (
    expected_digests,
    imperfect_dissemination_probability,
    ttl_for_target,
)
from repro.analysis.recursion import phi, psi_sequence
from repro.crypto.hashing import hash_fields
from repro.ledger.chain import Blockchain
from repro.ledger.kvstore import KeyValueStore, Version
from repro.metrics.bandwidth import aggregate_series
from repro.metrics.latency import percentile
from repro.metrics.probability_plot import logistic_probability_points, logit
from repro.simulation import Simulator
from repro.simulation.random import sample_skipping

from tests.conftest import make_chain


# ----- simulation engine ----------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_engine_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)
def test_engine_run_until_boundary(delays, until):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run(until=until)
    assert all(delay <= until for delay in fired)
    assert sorted(fired) == sorted(d for d in delays if d <= until)


# ----- random sampling --------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32),
)
def test_sample_without_properties(population_size, k, seed):
    import random

    rng = random.Random(seed)
    population = [f"n{i}" for i in range(population_size)]
    sample = sample_skipping(population, 0, rng, k)
    assert len(sample) == min(k, population_size - 1)
    assert len(set(sample)) == len(sample)
    assert population[0] not in sample
    assert set(sample) <= set(population)


@given(st.integers(), st.text(max_size=30))
def test_derived_streams_reproducible(seed, name):
    from repro.simulation.random import derive_seed

    assert derive_seed(seed, name) == derive_seed(seed, name)


# ----- hashing ---------------------------------------------------------------


@given(st.lists(st.one_of(st.integers(), st.text(max_size=20), st.booleans()), max_size=8))
def test_hash_fields_deterministic(fields):
    assert hash_fields(*fields) == hash_fields(*fields)
    assert len(hash_fields(*fields)) == 64


@given(st.text(max_size=20), st.text(max_size=20))
def test_hash_fields_concat_ambiguity_resistant(a, b):
    if (a, b) != (a + b, ""):
        assert hash_fields(a, b) != hash_fields(a + b, "")


# ----- kv store ---------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["k0", "k1", "k2"]),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=30,
    )
)
def test_kvstore_last_write_wins(writes):
    store = KeyValueStore()
    last = {}
    for index, (key, value) in enumerate(writes):
        version = Version(index, 0)
        store.put(key, value, version)
        last[key] = (value, version)
    for key, (value, version) in last.items():
        assert store.get_value(key) == value
        assert store.get_version(key) == version


# ----- blockchain --------------------------------------------------------------


@given(st.permutations(list(range(8))))
def test_chain_commits_in_order_regardless_of_arrival(order):
    blocks = make_chain([1] * 8)
    chain = Blockchain()
    committed = []
    for index in order:
        chain.receive(blocks[index])
        while (ready := chain.peek_ready()) is not None:
            chain.commit(ready)
            committed.append(ready.number)
    assert committed == list(range(8))
    assert chain.verify_committed_chain()


# ----- analysis ----------------------------------------------------------------


@given(
    st.integers(min_value=10, max_value=500),
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
)
def test_phi_bounded_and_monotone(n, fout, x):
    value = phi(x, n, fout)
    assert 0.0 <= value <= n
    assert phi(x + 1.0, n, fout) >= value


@given(st.integers(min_value=10, max_value=300), st.integers(min_value=2, max_value=6))
def test_psi_sequence_monotone(n, fout):
    seq = psi_sequence(20, n, fout)
    assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
    assert seq[-1] <= n


@given(
    st.integers(min_value=20, max_value=300),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=25),
)
def test_pe_bound_monotone_in_ttl(n, fout, ttl):
    pe_here = imperfect_dissemination_probability(n, fout, ttl)
    pe_next = imperfect_dissemination_probability(n, fout, ttl + 1)
    assert 0.0 <= pe_next <= pe_here <= 1.0


@settings(max_examples=25)
@given(
    st.integers(min_value=20, max_value=200),
    st.integers(min_value=2, max_value=6),
    st.sampled_from([1e-3, 1e-6, 1e-9]),
)
def test_ttl_for_target_achieves_target(n, fout, pe):
    ttl = ttl_for_target(n, fout, pe)
    assert imperfect_dissemination_probability(n, fout, ttl) <= pe
    if ttl > 1:
        assert imperfect_dissemination_probability(n, fout, ttl - 1) > pe


@given(st.integers(min_value=20, max_value=200), st.integers(min_value=2, max_value=6))
def test_expected_digests_increasing_in_ttl(n, fout):
    values = [expected_digests(n, fout, ttl) for ttl in range(1, 10)]
    assert values == sorted(values)


# ----- metrics ------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=200),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_percentile_within_range(samples, fraction):
    ordered = sorted(samples)
    value = percentile(ordered, fraction)
    assert ordered[0] <= value <= ordered[-1]


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100),
    st.integers(min_value=1, max_value=20),
)
def test_aggregate_series_preserves_mass(values, factor):
    aggregated = aggregate_series(values, factor)
    # Total mass: sum of (mean * window length) equals the original sum.
    total = 0.0
    for start, mean in zip(range(0, len(values), factor), aggregated):
        window = values[start : start + factor]
        total += mean * len(window)
    assert math.isclose(total, sum(values), rel_tol=1e-9, abs_tol=1e-6)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=300))
def test_probability_points_monotone(samples):
    points = logistic_probability_points(samples)
    latencies = [p.latency for p in points]
    fractions = [p.fraction for p in points]
    ordinates = [p.ordinate for p in points]
    assert latencies == sorted(latencies)
    assert fractions == sorted(fractions)
    assert ordinates == sorted(ordinates)
    assert all(0 < f < 1 for f in fractions)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_logit_inverse(p):
    value = logit(p)
    recovered = 1.0 / (1.0 + math.exp(-value))
    assert math.isclose(recovered, p, rel_tol=1e-6, abs_tol=1e-9)
