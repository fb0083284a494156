"""Unit tests for named deterministic random streams."""

import copy
import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Simulator
from repro.simulation import random as random_streams
from repro.simulation.process import Process
from repro.simulation.random import (
    RandomStreams,
    Replayable,
    derive_seed,
    first_draw,
    first_replay,
    sample_skipping,
    sample_without,
)


def test_same_seed_same_sequence():
    a = RandomStreams(1).stream("x")
    b = RandomStreams(1).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(1)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(3)
    assert streams.stream("s") is streams.stream("s")


def test_contains_reports_created_streams():
    streams = RandomStreams(3)
    assert "s" not in streams
    streams.stream("s")
    assert "s" in streams


def test_names_lists_streams_in_first_draw_order():
    streams = RandomStreams(3)
    assert streams.names() == []
    streams.stream("b")
    streams.stream("a")
    streams.stream("b")
    assert streams.names() == ["b", "a"]


class _Owner:
    """A stream owner in the shape every gossip component has."""

    def __init__(self, host, purpose):
        self.host = host
        self.STREAM = purpose
        self._rng = None
        self.name = f"{host.name}:{purpose}"

    def draw(self):
        return (self._rng or first_draw(self)).random()


def test_first_draw_binds_once_and_only_on_use():
    streams = RandomStreams(4)
    host = Process(Simulator(), "peer-0", streams)
    used, unused = _Owner(host, "used"), _Owner(host, "unused")
    assert streams.names() == []  # constructing an owner seeds nothing
    first = used.draw()
    assert streams.names() == ["peer-0:used"] and unused._rng is None
    assert used._rng is streams.stream("peer-0:used")
    assert first == RandomStreams(4).stream("peer-0:used").random()
    bound = used._rng
    used.draw()
    assert used._rng is bound


_PURPOSES = ["background", "iuc-push-targets", "leader-initial-gossiper", "recovery"]


@settings(max_examples=60, deadline=None)
@given(
    master_seed=st.integers(min_value=0, max_value=2**32),
    first_use=st.permutations([(peer, purpose) for peer in range(3) for purpose in _PURPOSES]),
    interleave=st.randoms(use_true_random=False),
)
def test_first_draw_order_is_immaterial(master_seed, first_use, interleave):
    """The "RNG-stream creation is order-free" sentence sharded runs rely
    on: whatever order owners first draw in — and however their later
    draws interleave — each stream yields what a registry that created
    every stream eagerly, in sorted order, yields."""
    eager = RandomStreams(master_seed)
    names = sorted(f"peer-{peer}:{purpose}" for peer, purpose in first_use)
    for name in names:
        eager.stream(name)
    expected = {name: [eager.stream(name).random() for _ in range(8)] for name in names}

    lazy = RandomStreams(master_seed)
    sim = Simulator()
    hosts = [Process(sim, f"peer-{peer}", lazy) for peer in range(3)]
    owners = [_Owner(hosts[peer], purpose) for peer, purpose in first_use]
    drawn = {owner.name: [] for owner in owners}
    for owner in owners:  # first use, in the permuted order
        drawn[owner.name].append(owner.draw())
    assert lazy.names() == [owner.name for owner in owners]
    rest = [owner for owner in owners for _ in range(7)]
    interleave.shuffle(rest)
    for owner in rest:
        drawn[owner.name].append(owner.draw())
    assert drawn == expected


def test_a_stream_is_a_random_random_in_every_observable_way():
    """Draws (``gauss`` included: it parks a value in ``gauss_next``),
    ``getstate()``, pickling and ``deepcopy`` match a plain
    ``random.Random`` of the same seed, and a stream has no slot a plain
    one would keep in its ``__dict__``."""
    stream = RandomStreams(5).stream("x")
    plain = random.Random(derive_seed(5, "x"))
    assert isinstance(stream, random.Random) and type(stream).__slots__ == ("gauss_next",)
    assert [stream.gauss(0, 1) for _ in range(3)] == [plain.gauss(0, 1) for _ in range(3)]
    assert stream.getstate() == plain.getstate() and stream.gauss_next is not None
    for twin in (pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream)):
        assert type(twin) is type(stream) and twin.getstate() == plain.getstate()
        mirror = copy.deepcopy(plain)
        assert [twin.gauss(0, 1) for _ in range(3)] == [mirror.gauss(0, 1) for _ in range(3)]
    assert [stream.random() for _ in range(3)] == [plain.random() for _ in range(3)]


def test_a_stream_costs_its_generator_state_only():
    """2,000 streams cost at most 2,750 traced bytes each: the Mersenne
    Twister state, the object and its registry slot. Measured 2,594; a
    plain ``random.Random``, whose instance ``__dict__`` holds
    ``gauss_next``, cost 2,921."""
    n = 2_000
    streams = RandomStreams(7)
    names = [f"stream-{i}" for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in names:
            streams.stream(name)
        per_stream = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_stream <= 2_750


def test_draw_in_one_stream_does_not_affect_another():
    streams = RandomStreams(9)
    before = RandomStreams(9).stream("b").random()
    for _ in range(100):
        streams.stream("a").random()
    assert streams.stream("b").random() == before


def test_spawn_derives_independent_registry():
    parent = RandomStreams(5)
    child1 = parent.spawn("run-1")
    child2 = parent.spawn("run-2")
    assert child1.stream("x").random() != child2.stream("x").random()
    # Deterministic: respawning gives the same child sequence.
    again = RandomStreams(5).spawn("run-1")
    assert again.stream("x").random() == RandomStreams(5).spawn("run-1").stream("x").random()


def test_derive_seed_is_stable_and_64bit():
    seed = derive_seed(123, "network:latency")
    assert seed == derive_seed(123, "network:latency")
    assert 0 <= seed < 2**64


def test_derive_seed_sensitive_to_name():
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_sample_without_excludes_self():
    rng = RandomStreams(7).stream("s")
    population = list(range(10))
    for _ in range(50):
        sample = sample_skipping(population, 4, rng, 3)
        assert 4 not in sample
        assert len(sample) == 3
        assert len(set(sample)) == 3


def test_sample_without_returns_all_when_k_too_large():
    rng = RandomStreams(7).stream("s")
    sample = sample_skipping([1, 2, 3], 1, rng, 10)
    assert sorted(sample) == [1, 3]


def test_sample_without_uniformity_smoke():
    rng = RandomStreams(11).stream("s")
    counts = {i: 0 for i in range(5)}
    for _ in range(2000):
        for item in sample_without(rng, list(range(5)), 2):
            counts[item] += 1
    # Each of 5 items should appear ~2000*2/5 = 800 times.
    for count in counts.values():
        assert 650 < count < 950


# ----- replayable streams -------------------------------------------------

# One draw of each kind a replayable stream serves: (kind, *arguments).
# The sample cases cover sample_skipping's pool path (n <= 21), its set
# path (n > 21) and its shuffle path (k >= n).
_DRAWS = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(
        st.just("sample"),
        st.sampled_from([(10, 3), (21, 5), (100, 4), (400, 9), (5, 7), (3, 3)]),
        st.integers(0, 400),
    ),
    st.tuples(st.just("bits"), st.sampled_from([0, 1, 31, 32, 33, 64, 100])),
)


def _draw(rng, draw):
    kind, *args = draw
    if kind == "uniform":
        return rng.uniform(*args)
    if kind == "choice":
        return rng.choice(range(args[0]))
    if kind == "sample":
        (size, k), skip = args
        return sample_skipping(range(size), min(skip, size), rng, k)
    return rng.getrandbits(args[0])


_NAMES = [f"peer-{i}:recovery" for i in range(4)]


@settings(max_examples=150, deadline=None)
@given(
    budget=st.sampled_from([1, 2, 64]),
    master_seed=st.integers(min_value=0, max_value=2**32),
    sessions=st.lists(
        st.tuples(st.integers(0, len(_NAMES) - 1), st.lists(_DRAWS, max_size=6)), max_size=40
    ),
)
def test_a_replayable_stream_draws_what_a_live_stream_draws(budget, master_seed, sessions):
    """However sessions over several replayable streams interleave, and
    however few generators the registry keeps live, every draw equals the
    one a persistent stream of the same name gives, and so does the final
    generator state."""
    with mock.patch.object(random_streams, "LIVE_REPLAYABLE", budget):
        replay, twin = RandomStreams(master_seed), RandomStreams(master_seed)
        for index, draws in sessions:
            rng, expected = replay.replayable(_NAMES[index]).open(), twin.stream(_NAMES[index])
            for draw in draws:
                assert _draw(rng, draw) == _draw(expected, draw), draw
        assert len(replay._lru) <= budget
        for name in twin.names():
            assert replay.replayable(name).open().getstate() == twin.stream(name).getstate()


def test_eviction_rebuilds_a_stream_in_place():
    """At a budget of one, alternating two streams re-seeds the one
    generator object for each in turn, and counts every rebuild."""
    with mock.patch.object(random_streams, "LIVE_REPLAYABLE", 1):
        replay, twin = RandomStreams(2), RandomStreams(2)
        a, b = replay.replayable("a"), replay.replayable("b")
        generator = a.open()
        for _ in range(5):
            for handle, name in ((a, "a"), (b, "b")):
                assert handle.open() is generator
                assert handle.open().random() == twin.stream(name).random()
    assert replay.rebuilds == 9  # every open of the other stream's generator
    assert a._live is None and a.words == 10 and b.open() is generator


def test_a_replayable_generator_counts_its_words():
    rng = RandomStreams(3).replayable("x").open()
    counts = []
    for draw in (rng.random, lambda: rng.getrandbits(0), lambda: rng.getrandbits(32),
                 lambda: rng.getrandbits(33), lambda: rng.uniform(0.0, 1.0)):
        draw()
        counts.append(rng.words)
    assert counts == [2, 2, 3, 5, 7]
    with pytest.raises(ValueError):
        rng.getrandbits(-1)
    assert rng.words == 7


def test_eviction_refuses_a_pending_gauss_value():
    with mock.patch.object(random_streams, "LIVE_REPLAYABLE", 1):
        streams = RandomStreams(4)
        streams.replayable("a").open().gauss(0.0, 1.0)
        with pytest.raises(RuntimeError, match="gauss"):
            streams.replayable("b").open()


def test_a_name_is_dense_or_replayable_never_both():
    streams = RandomStreams(5)
    streams.stream("dense")
    streams.replayable("replay")
    with pytest.raises(TypeError, match="dense"):
        streams.replayable("dense")
    with pytest.raises(TypeError, match="replayable"):
        streams.stream("replay")
    assert streams.names() == ["dense", "replay"] and "replay" in streams


class _ReplayOwner:
    """A replayable stream owner in the shape of the recovery component."""

    def __init__(self, host, purpose):
        self.host = host
        self.STREAM = purpose
        self._stream = None

    def draw(self):
        return (self._stream or first_replay(self)).open().random()


def test_first_replay_binds_once_and_only_on_use():
    streams = RandomStreams(6)
    host = Process(Simulator(), "peer-0", streams)
    owner = _ReplayOwner(host, "recovery")
    assert streams.names() == []
    first = owner.draw()
    handle = owner._stream
    assert type(handle) is Replayable and handle is host.replayable("recovery")
    assert first == RandomStreams(6).stream("peer-0:recovery").random()
    owner.draw()
    assert owner._stream is handle
