"""Unit tests for named deterministic random streams."""

import copy
import pickle
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.workloads import ENH_LAN_1K
from repro.scenarios.runner import run_scenario
from repro.simulation import Simulator
from repro.simulation import random as random_streams
from repro.simulation.process import Process
from repro.simulation.random import (
    HOT_SPAN,
    LAST_FILL,
    UNIFORM_FILL,
    Buffered,
    RandomStreams,
    Stream,
    Uniform,
    derive_seed,
    first_draw,
    sample_skipping,
    sample_without,
)


def test_same_seed_same_sequence():
    a = RandomStreams(1).uniform("x")
    b = RandomStreams(1).uniform("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(1)
    a = [streams.uniform("a").random() for _ in range(5)]
    b = [streams.uniform("b").random() for _ in range(5)]
    assert a != b


def test_different_master_seeds_differ():
    a = RandomStreams(1).uniform("x").random()
    b = RandomStreams(2).uniform("x").random()
    assert a != b


def test_a_source_is_cached_until_promoted_then_its_generator_is():
    streams = RandomStreams(3)
    source = streams.uniform("s")
    assert type(source) is Uniform and streams.uniform("s") is source
    for _ in range(UNIFORM_FILL + 1):
        source.random()
    live = streams.uniform("s")
    assert type(live) is Stream and streams.uniform("s") is live
    assert source.random == live.random


def test_contains_reports_created_streams():
    streams = RandomStreams(3)
    assert "s" not in streams
    streams.uniform("s")
    assert "s" in streams


def test_names_lists_streams_in_first_draw_order():
    streams = RandomStreams(3)
    assert streams.names() == []
    streams.uniform("b")
    streams.buffered("a", Simulator())
    streams.uniform("b")
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
    assert used._rng is streams.buffered("peer-0:used", host.sim) and used._rng.owner is used
    assert type(used._rng) is Buffered
    assert first == random.Random(derive_seed(4, "peer-0:used")).random()
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
    draws interleave — each stream yields what a generator of its seed,
    created eagerly in sorted order, yields."""
    names = sorted(f"peer-{peer}:{purpose}" for peer, purpose in first_use)
    eager = {name: random.Random(derive_seed(master_seed, name)) for name in names}
    expected = {name: [eager[name].random() for _ in range(8)] for name in names}

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
    stream = Stream(derive_seed(5, "x"))
    plain = random.Random(derive_seed(5, "x"))
    assert isinstance(stream, random.Random) and type(stream).__slots__ == ("gauss_next",)
    assert [stream.gauss(0, 1) for _ in range(3)] == [plain.gauss(0, 1) for _ in range(3)]
    assert stream.getstate() == plain.getstate() and stream.gauss_next is not None
    for twin in (pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream)):
        assert type(twin) is type(stream) and twin.getstate() == plain.getstate()
        mirror = copy.deepcopy(plain)
        assert [twin.gauss(0, 1) for _ in range(3)] == [mirror.gauss(0, 1) for _ in range(3)]
    assert [stream.random() for _ in range(3)] == [plain.random() for _ in range(3)]


def test_a_promoted_source_is_held_as_its_generator_alone():
    """2,000 sources that spent their fill cost at most 2,750 traced bytes
    each: the Mersenne Twister state, the object and its registry slot.
    Measured 2,594, what a generator made at the first draw cost: the
    :class:`Uniform`, its chain and its fill are freed at promotion once
    the registry holds the generator and nobody else holds the source."""
    n = 2_000
    streams = RandomStreams(7)
    names = [f"stream-{i}" for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in names:
            draw = streams.uniform(name).random
            for _ in range(UNIFORM_FILL + 1):
                draw()
        del draw
        per_stream = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert all(type(streams.uniform(name)) is Stream for name in names)
    assert per_stream <= 2_750


def test_a_cold_source_holds_its_fill_not_a_generator():
    """2,000 sources that drew a few floats each cost at most 1,250 traced
    bytes apiece, against ~2,600 for a generator: the source, its seed,
    its chain and its one fill of ``UNIFORM_FILL`` floats (768 B), and its
    name's registry slot. Measured 1,144."""
    n = 2_000
    streams = RandomStreams(7)
    names = [f"stream-{i}" for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in names:
            streams.uniform(name).random()
        per_stream = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert all(type(streams.uniform(name)) is Uniform for name in names)
    assert per_stream <= 1_250


def test_draw_in_one_stream_does_not_affect_another():
    streams = RandomStreams(9)
    before = RandomStreams(9).uniform("b").random()
    for _ in range(300):
        streams.uniform("a").random()
    assert streams.uniform("b").random() == before


def test_derive_seed_is_stable_and_64bit():
    seed = derive_seed(123, "network:latency")
    assert seed == derive_seed(123, "network:latency")
    assert 0 <= seed < 2**64


def test_derive_seed_sensitive_to_name():
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_sample_without_excludes_self():
    rng = RandomStreams(7).buffered("s", Simulator())
    population = list(range(10))
    for _ in range(50):
        sample = sample_skipping(population, 4, rng, 3)
        assert 4 not in sample
        assert len(sample) == 3
        assert len(set(sample)) == 3


def test_sample_without_returns_all_when_k_too_large():
    rng = RandomStreams(7).buffered("s", Simulator())
    sample = sample_skipping([1, 2, 3], 1, rng, 10)
    assert sorted(sample) == [1, 3]


def test_sample_without_uniformity_smoke():
    rng = RandomStreams(11).buffered("s", Simulator())
    counts = {i: 0 for i in range(5)}
    for _ in range(2000):
        for item in sample_without(rng, list(range(5)), 2):
            counts[item] += 1
    # Each of 5 items should appear ~2000*2/5 = 800 times.
    for count in counts.values():
        assert 650 < count < 950


# ----- uniform sources ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    fill=st.sampled_from([1, 3, UNIFORM_FILL]),
    master_seed=st.integers(min_value=0, max_value=2**32),
    ways=st.lists(st.sampled_from(["first", "current", "owner"]), max_size=3 * UNIFORM_FILL),
)
def test_a_uniform_source_draws_what_a_random_random_draws(fill, master_seed, ways):
    """Every draw of a uniform source equals the one ``random.Random`` of
    its seed gives, in order, across the fill boundary and the promotion,
    whether it goes through the first callable (stale once promoted),
    through the source's current ``random`` or through what its owner
    holds (the first callable until ``rebind`` hands it the generator).
    Promoted, the generator is in the twin's state and has replaced the
    source in its registry."""
    name = "network:latency:n0"
    with mock.patch.object(random_streams, "UNIFORM_FILL", fill):
        streams = RandomStreams(master_seed)
        source = streams.uniform(name)
        told = []
        source.rebind = lambda name, live: told.append((name, live))
        first = source.random
        twin = random.Random(derive_seed(master_seed, name))
        for way in ways:
            if way == "first":
                draw = first
            elif way == "current":
                draw = source.random
            else:
                draw = told[0][1].random if told else first
            assert draw() == twin.random()
    if len(ways) > fill:
        [(told_name, live)] = told
        assert told_name == name and type(live) is Stream and source.index == fill
        assert streams.uniform(name) is live and source.random == live.random
        assert live.getstate() == twin.getstate()
    else:
        assert told == [] and streams.uniform(name) is source
    assert first() == twin.random()


def test_a_source_makes_its_fill_at_its_first_draw():
    """A source nobody draws from (a sender's latency under a constant
    model, its queue draw while CoDel never drops) holds no fill."""
    source = RandomStreams(2).uniform("network:queue:n0")
    assert source.index == 0
    source.random()
    assert source.index == UNIFORM_FILL


def test_a_source_seeds_once_for_its_fill_and_once_at_promotion():
    """A cold source re-seeds the shared scratch generator once; spending
    its fill seeds one generator of its own, advanced past the fill, and
    nothing seeds again however long it draws."""
    seeds = []
    fill_seed = random_streams._seed_in_place

    def counted_fill(generator, seed):
        seeds.append("fill")
        fill_seed(generator, seed)

    def counted_promotion(generator, seed):
        seeds.append("promotion")
        random.Random.seed(generator, seed)

    with mock.patch.object(random_streams, "_seed_in_place", counted_fill), mock.patch.object(
        Stream, "seed", counted_promotion
    ):
        source = RandomStreams(8).uniform("faults:lazy:n0")
        twin = random.Random(derive_seed(8, "faults:lazy:n0"))
        drawn = [source.random() for _ in range(UNIFORM_FILL)]
        assert seeds == ["fill"]
        drawn += [source.random() for _ in range(10**4)]
    assert seeds == ["fill", "promotion"]
    assert drawn == [twin.random() for _ in drawn]


# ----- buffered streams ---------------------------------------------------

# One draw of each kind a buffered stream serves: (kind, *arguments). The
# sample cases cover sample_skipping's pool path (n <= 21), its set path
# (n > 21) and its shuffle path (k >= n).
_DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("bits"), st.integers(0, 96)),
    st.tuples(st.just("uniform"), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    st.tuples(st.just("choice"), st.integers(1, 40)),
    st.tuples(st.just("shuffle"), st.integers(0, 30)),
    st.tuples(
        st.just("sample"),
        st.sampled_from([(10, 3), (21, 5), (100, 4), (400, 9), (5, 7), (3, 3)]),
        st.integers(0, 400),
    ),
)


def _draw(rng, draw):
    kind, *args = draw
    if kind == "random":
        return rng.random()
    if kind == "bits":
        return rng.getrandbits(args[0])
    if kind == "uniform":
        return rng.uniform(*args)
    if kind == "choice":
        return rng.choice(range(args[0]))
    if kind == "shuffle":
        items = list(range(args[0]))
        rng.shuffle(items)
        return items
    (size, k), skip = args
    return sample_skipping(range(size), min(skip, size), rng, k)


class _ClockedHost:
    """A host whose streams are timed by a clock the test moves."""

    name = "peer-0"
    now = 0.0

    def __init__(self, streams):
        self.streams = streams

    def rng(self, purpose):
        return self.streams.buffered(f"{self.name}:{purpose}", self)


# The word index at which a stream spending every fill within HOT_SPAN is
# promoted, by FIRST_FILL: where it spends its first fill cut to LAST_FILL
# words (16 + 32 + 64 + 64 = 176 words at the default of 16).
_PROMOTED_AT = {1: 191, 3: 157, 16: 176}


@settings(max_examples=150, deadline=None)
@given(
    first_fill=st.sampled_from(sorted(_PROMOTED_AT)),
    master_seed=st.integers(min_value=0, max_value=2**32),
    lead=st.integers(0, 300),
    step=st.sampled_from([0.0, HOT_SPAN / 8]),
    draws=st.lists(st.tuples(st.booleans(), _DRAWS), max_size=80),
)
def test_a_buffered_stream_draws_what_a_random_random_draws(
    first_fill, master_seed, lead, step, draws
):
    """Every draw of a buffered stream equals the one ``random.Random`` of
    its seed gives, across fill boundaries and promotion, whether it goes
    through the stream object or through its owner's ``_rng``. Its host's
    clock moves ``step`` per draw after ``lead`` single words: at 0 every
    fill is spent hot and the stream is promoted exactly where it spends
    its first fill cut to LAST_FILL words (the 176th word), at
    ``HOT_SPAN / 8`` most fills are spent slowly. Once promoted, the owner holds a :class:`Stream` in
    the twin's state."""
    with mock.patch.object(random_streams, "FIRST_FILL", first_fill):
        host = _ClockedHost(RandomStreams(master_seed))
        owner = _Owner(host, "pull-targets")
        twin = random.Random(derive_seed(master_seed, "peer-0:pull-targets"))
        held = first_draw(owner)
        for _ in range(lead):
            host.now += step
            assert held.getrandbits(32) == twin.getrandbits(32)
        for via_owner, draw in draws:
            host.now += step
            rng = owner._rng if via_owner else held
            assert _draw(rng, draw) == _draw(twin, draw), draw
    if held._live is None:
        assert owner._rng is held
        if not step:
            assert held.index - len(held.words) <= _PROMOTED_AT[first_fill]
    else:
        assert type(owner._rng) is Stream and owner._rng is held._live
        assert owner._rng.getstate() == twin.getstate()
        if not step:
            assert held.index == _PROMOTED_AT[first_fill]
    assert held.random() == twin.random()


def test_getrandbits_refuses_negative_widths_and_draws_nothing_for_zero():
    rng, twin = RandomStreams(3).buffered("x", Simulator()), random.Random(derive_seed(3, "x"))
    with pytest.raises(ValueError):
        rng.getrandbits(-1)
    assert rng.getrandbits(0) == 0
    assert rng.getrandbits(32) == twin.getrandbits(32)


def test_fills_double_until_the_stream_is_promoted():
    """Fills of 16, 32 and 64 words, one more of 64, and the stream is
    promoted when it has spent that one too: every fill is spent at time
    0, within HOT_SPAN."""
    owner = _Owner(Process(Simulator(), "peer-0", RandomStreams(2)), "recovery")
    rng = first_draw(owner)
    fills = []
    for _ in range(4):
        rng.getrandbits(32)
        fills.append((rng.index, len(rng.words) + 1))  # (end, size) of the fill
        for _ in range(len(rng.words)):
            rng.getrandbits(32)
    assert fills == [(16, 16), (48, 32), (112, 64), (176, 64)] and owner._rng is rng
    assert rng._live is None
    rng.getrandbits(32)
    assert rng._live is not None and owner._rng is rng._live
    assert len(rng.words) == 0 and rng.index == 176


def test_a_stream_spending_its_fills_slowly_stays_buffered():
    """A stream that takes longer than HOT_SPAN simulated seconds to spend
    a LAST_FILL-word fill (a recovery stream, a few words every 4 s) is
    refilled LAST_FILL words at a time however long the run, even after
    it spent its first 112 words at once (a push burst), and is promoted
    once it spends a later fill faster."""
    clock = _ClockedHost(RandomStreams(9))
    owner = _Owner(clock, "recovery")
    twin = random.Random(derive_seed(9, "peer-0:recovery"))
    rng = first_draw(owner)
    drawn = []

    def spend(draws, step):
        for _ in range(draws):
            clock.now += step
            drawn.append((owner._rng or first_draw(owner)).getrandbits(32))

    spend(112, 0.0)  # three fills at once
    spend(5 * LAST_FILL, HOT_SPAN / LAST_FILL * 1.01)  # then five more, slowly
    assert rng._live is None and owner._rng is rng
    assert rng.index == 112 + 5 * LAST_FILL and len(rng.words) == 0
    spend(LAST_FILL + 1, HOT_SPAN / LAST_FILL * 0.99)  # one fill spent within HOT_SPAN
    assert type(owner._rng) is Stream and owner._rng is rng._live
    assert rng.index == 112 + 6 * LAST_FILL
    assert drawn == [twin.getrandbits(32) for _ in drawn]
    assert owner._rng.getstate() == twin.getstate()


def test_a_promoted_stream_without_an_owner_draws_through_to_its_generator():
    """A stream held with no owner to rebind (drawn straight from
    ``buffered``, or kept in a local across its promotion) keeps drawing
    after promotion, from the live generator, in the sequence of a
    ``random.Random`` of its seed."""
    rng = RandomStreams(5).buffered("peer-0:probe", Simulator())
    twin = random.Random(derive_seed(5, "peer-0:probe"))
    drawn = [rng.uniform(-1.0, 1.0) for _ in range(100)]  # 200 words
    assert rng.owner is None and type(rng._live) is Stream
    assert drawn == [twin.uniform(-1.0, 1.0) for _ in range(100)]
    assert rng._live.getstate() == twin.getstate()


def test_a_stream_drawing_many_words_seeds_five_times():
    """10^5 words drawn at once cost four fills and one promotion: five
    seedings, not one per fill (each re-seeds and advances from the start,
    so fills alone would cost time quadratic in the words drawn)."""
    seeds = []
    fill_seed = random_streams._seed_in_place

    def counted_fill(generator, seed):
        seeds.append("fill")
        fill_seed(generator, seed)

    def counted_promotion(generator, seed):
        seeds.append("promotion")
        random.Random.seed(generator, seed)

    with mock.patch.object(random_streams, "_seed_in_place", counted_fill), mock.patch.object(
        Stream, "seed", counted_promotion
    ):
        owner = _Owner(Process(Simulator(), "peer-0", RandomStreams(8)), "iuc-push-targets")
        twin = random.Random(derive_seed(8, "peer-0:iuc-push-targets"))
        drawn = [(owner._rng or first_draw(owner)).getrandbits(32) for _ in range(10**5)]
    assert seeds == ["fill"] * 4 + ["promotion"]
    assert drawn == [twin.getrandbits(32) for _ in range(10**5)]


def test_a_cold_buffered_stream_costs_a_tenth_of_a_generator():
    """2,000 streams that drew a few words each (one 16-word fill) cost at
    most 400 traced bytes apiece, against ~2,600 for a :class:`Stream`:
    the object, its seed, its fill and its name and registry slot.
    Measured 302 (370 after a second fill, 506 after a third)."""
    n = 2_000
    streams, sim = RandomStreams(7), Simulator()
    names = [f"peer-{i}:recovery" for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in names:
            streams.buffered(name, sim).uniform(0.0, 4.0)
        per_stream = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_stream <= 400


def test_no_push_target_stream_is_promoted_on_a_one_burst_per_block_run():
    """On the benchmark's 1,000-peer enhanced run with background traffic
    (``enh-lan-1k``, six blocks 1.5 s apart, seed 1), every push-target
    stream spends its first 64-word fill within HOT_SPAN and then draws at
    most 173 words in all, short of the 176 that spending a second one
    takes: none is promoted, and the only live generators at the end are
    the senders' promoted latency streams. Promoted at their first hot
    64-word fill, all 1,000 push-target streams held a 2.5 KB generator
    from their 112th word on."""
    run = run_scenario(ENH_LAN_1K, seed=1)
    streams = run.result.net.streams._streams
    push = [rng for name, rng in streams.items() if name.endswith(":iuc-push-targets")]
    assert len(push) == ENH_LAN_1K.n_peers
    assert all(rng._live is None and rng.index > 112 for rng in push)
    live = [
        name
        for name, rng in streams.items()
        if type(rng) is Stream or (type(rng) is Buffered and rng._live is not None)
    ]
    assert live and all(name.startswith("network:latency:") for name in live)
