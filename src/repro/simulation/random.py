"""Named deterministic random streams.

Every stochastic component of the simulation (gossip target selection,
network jitter, workload permutations, ...) draws from its own named stream
derived from a single master seed. This keeps runs reproducible and makes
components statistically independent: adding a draw in one component does
not perturb the sequence seen by another.

A stream exists from its first draw, not from the construction of the
component that owns it. Seeds derive from ``(master_seed, name)`` alone,
so which owner draws first — or whether one ever does — cannot move
another stream's sequence.

No stream holds a live 2.5 KB Mersenne-Twister state while it is idle.
Each is its seed plus the draws it has made ahead and not handed out yet,
and each is *promoted* to a live :class:`Stream` once it runs hot; either
way it draws exactly what a ``random.Random`` of its seed would, draw for
draw. It comes in one of two shapes, by what its owner draws:

* :class:`Uniform` (:meth:`RandomStreams.uniform`) — streams whose owners
  call ``random()`` and nothing else: ``network:latency:*`` and
  ``network:queue:*``, which the network kernels draw per copy through a
  C-level callable, and the drop faults' ``faults:lazy:*``,
  ``faults:degrade:*`` and ``faults:flaky:*``. It holds one fill of
  :data:`UNIFORM_FILL` pre-drawn floats and is promoted when that fill is
  spent;
* :class:`Buffered` (:meth:`RandomStreams.buffered`) — every stream a
  process draws from (:meth:`repro.simulation.process.Process.rng`: push
  targets, recovery, pull, background traffic, the leaders' first
  gossipers) and the few others that sample or shuffle
  (``faults:liar:*``, ``workload:permutations``). It holds the next few
  32-bit words of its sequence, refilled from the seed when spent, and is
  promoted when it spends a fill cut to :data:`LAST_FILL` words, its
  fourth or a later one, within :data:`HOT_SPAN` simulated seconds.

A fill is made by re-seeding one shared scratch generator and advancing
it past what the stream drew before (:func:`_scratch_at`); a promotion
seeds a :class:`Stream` of its own and advances it the same way
(:func:`_live_at`). A promoted stream rebinds whoever asked to be told
(a :class:`Buffered` stream's ``owner``, a :class:`Uniform` one's
``rebind``), so a hot stream's owner draws from the live generator
directly.

A promotion costs what a fill costs, one seeding and an advance, so a
buffered stream pays for one more :data:`LAST_FILL` fill before it pays
for a generator: one that spends its first 112 words fast and then
stops (a push-target stream on a block's burst) never holds one, and
one that stays hot pays one fill more than promoting at once would. A
uniform source is promoted at once: a hot sender draws many times its
fill.
"""

from __future__ import annotations

import _random
import hashlib
import random
import sys
from array import array
from itertools import chain, repeat
from math import ceil, log
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")

#: Words in a buffered stream's first fill; each later fill doubles.
FIRST_FILL = 16
#: The largest fill. Three fills (16 + 32 + 64 = 112 words) hold a cold
#: stream's draws in at most 256 B, a tenth of the 624-word state; every
#: later fill is this size too.
LAST_FILL = 64
#: Simulated seconds: a stream that spends a fill cut to :data:`LAST_FILL`
#: words (its fourth, words 112-175, or a later one) in less is promoted,
#: as each refill re-seeds and advances from the start. The third fill,
#: 64 words by doubling, promotes nothing however fast it goes: a stream
#: may spend it on one burst and stop. The enhanced push and background
#: streams take 0.3-8 s; recovery, pull, the leaders' and the original
#: push streams take 25-81 s and stay buffered.
HOT_SPAN = 16.0
#: Floats in a uniform source's one fill; spending them promotes it. On a
#: 3,000-peer one-block run 92% of the senders' latency streams draw at
#: most 96 (p50 72) and so never hold a generator, while a fill is 768 B
#: against the 2.5 KB state (docs/performance.md, "Uniform sources").
UNIFORM_FILL = 96

# The C methods a fill re-seeds and reads the scratch generator with.
_seed_in_place = _random.Random.seed
_next_bits = _random.Random.getrandbits
_next_float = _random.Random.random
# The generator every fill re-seeds and reads: it carries nothing over.
_SCRATCH = _random.Random(0)
# The buffer of a stream that has not drawn yet or has been promoted.
_NO_WORDS = array("I")
_BIG_ENDIAN = sys.byteorder == "big"


def _scratch_at(seed: int, words: int) -> _random.Random:
    """The shared scratch generator, re-seeded with ``seed`` and advanced
    past its first ``words`` 32-bit words: where a fill starts."""
    scratch = _SCRATCH
    _seed_in_place(scratch, seed)
    if words:
        _next_bits(scratch, 32 * words)
    return scratch


def _live_at(seed: int, words: int) -> "Stream":
    """A live generator of ``seed`` past its first ``words`` 32-bit words:
    what a promoted stream draws from."""
    live = Stream(seed)
    if words:
        _next_bits(live, 32 * words)
    return live


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so that nearby master seeds and similar names still yield
    uncorrelated child seeds.
    """
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class Stream(random.Random):
    """A :class:`random.Random` that is its generator state and nothing
    more, what a promoted stream draws from: the slot holds the one
    attribute ``Random`` sets, so no live generator carries an instance
    ``__dict__`` (~330 B each). Draws, ``getstate()``, pickling and
    ``deepcopy`` are those of ``random.Random``."""

    __slots__ = ("gauss_next",)


class Buffered:
    """A stream kept as its seed, its next words and the index past them.

    It is not a :class:`random.Random`, which *is* the 2.5 KB state.
    ``getrandbits`` and ``random`` consume the buffered words as CPython's
    generator consumes its own, bit for bit; ``uniform``, ``choice``,
    ``shuffle`` and ``_randbelow`` are the stdlib's, over those two, and
    so is :func:`sample_skipping`. The buffer is held last word first and
    spent with ``pop()``. A spent buffer is refilled by re-seeding a
    scratch generator, advancing it past the words already drawn and
    reading the next fill, in three C calls.

    A stream that spends a fill cut to :data:`LAST_FILL` words within
    :data:`HOT_SPAN` simulated seconds of making it (``filled_at``, read
    from ``clock.now``) is promoted: ``_live`` becomes a :class:`Stream`
    positioned at its word index and, when :func:`first_draw` recorded an
    ``owner``, the owner's ``_rng`` is rebound to it. Whoever still holds
    this object draws through to the live generator.
    """

    __slots__ = ("seed", "index", "words", "owner", "filled_at", "_clock", "_live")

    _randbelow = random.Random._randbelow_with_getrandbits
    uniform = random.Random.uniform
    choice = random.Random.choice
    shuffle = random.Random.shuffle

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.index = 0
        self.words = _NO_WORDS
        self.owner = None
        self.filled_at = 0.0
        self._clock = clock
        self._live: Optional[Stream] = None

    def getrandbits(self, k: int) -> int:
        if 0 < k <= 32:
            try:
                return self.words.pop() >> (32 - k)
            except IndexError:
                return self._next() >> (32 - k)
        if k <= 0:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            return 0
        # Least significant word first; the last one keeps its top bits.
        bits = shift = 0
        while k > 32:
            bits |= self._next() << shift
            shift += 32
            k -= 32
        return bits | (self._next() >> (32 - k)) << shift

    def random(self) -> float:
        words = self.words
        if len(words) > 1:
            return ((words.pop() >> 5) * 67108864.0 + (words.pop() >> 6)) / 9007199254740992.0
        return ((self._next() >> 5) * 67108864.0 + (self._next() >> 6)) / 9007199254740992.0

    def _next(self) -> int:
        """The next word: buffered, from a new fill, or once promoted from
        the live generator."""
        if not self.words:
            if self._live is None:
                self._refill()
            if self._live is not None:
                return _next_bits(self._live, 32)
        return self.words.pop()

    def _refill(self) -> None:
        index = self.index
        size = index + FIRST_FILL  # FIRST_FILL at 0, twice it at FIRST_FILL, ...
        now = self._clock.now
        if size > LAST_FILL:
            # Past twice LAST_FILL, the fill just spent was cut to it too.
            if size > 2 * LAST_FILL and now - self.filled_at < HOT_SPAN:
                live = self._live = _live_at(self.seed, index)
                self.words = _NO_WORDS
                if self.owner is not None:
                    self.owner._rng = live
                return
            size = LAST_FILL
        self.filled_at = now
        scratch = _scratch_at(self.seed, index)
        # The first word drawn is the least significant: big-endian bytes
        # put it last, where pop() takes it first.
        words = self.words = array("I", _next_bits(scratch, 32 * size).to_bytes(4 * size, "big"))
        if not _BIG_ENDIAN:
            words.byteswap()
        self.index = index + size


class Uniform:
    """A stream whose owners call ``random()`` and nothing else: its seed
    and one fill of its first :data:`UNIFORM_FILL` floats, until that is
    spent.

    ``random`` is the draw. At first it is the ``__next__`` of an
    ``itertools.chain`` over this object, a C callable the network kernels
    call per copy: the chain asks :meth:`__next__` for the fill at the
    first draw, hands its floats out in order and asks again when they are
    spent. The source is then promoted to a live :class:`Stream` past the
    fill: ``random`` becomes the generator's bound ``random``, the
    generator replaces this object in its registry and, when ``rebind`` is
    set, ``rebind(name, live)`` lets the owner rebind what it bound to the
    first callable (a network port, :meth:`repro.net.network.Network.
    _open_port`), so a hot stream is held as a generator alone. A caller
    still holding the first callable keeps drawing, through the chain,
    from the live generator: whichever it holds, it draws what
    ``random.Random(seed).random()`` gives, in order.
    """

    __slots__ = ("seed", "index", "random", "rebind", "name", "_registry")

    def __init__(self, seed: int, name: str, registry: dict) -> None:
        self.seed = seed
        # Floats drawn ahead: 0 before the fill, its size once made.
        self.index = 0
        self.rebind: Optional[Callable[[str, Stream], None]] = None
        self.name = name
        self._registry = registry
        self.random: Callable[[], float] = chain.from_iterable(self).__next__

    def __iter__(self) -> "Uniform":
        return self

    def __next__(self) -> Iterable[float]:
        """What the chain draws from next: the fill, then, once it is
        spent, the promoted generator."""
        index = self.index
        if not index:
            size = self.index = UNIFORM_FILL
            # Through a list: an array extended from an iterator over-allocates.
            return array("d", list(map(_next_float, repeat(_scratch_at(self.seed, 0), size))))
        # random() reads two 32-bit words.
        live = self._registry[self.name] = _live_at(self.seed, 2 * index)
        draw = self.random = live.random
        if self.rebind is not None:
            self.rebind(self.name, live)
        return iter(draw, None)


class RandomStreams:
    """Factory and registry of named streams: :class:`Uniform` sources and
    :class:`Buffered` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, Union[Uniform, Stream, Buffered]] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def uniform(self, name: str) -> Union[Uniform, Stream]:
        """Return the uniform source registered under ``name``, creating it
        lazily: a :class:`Uniform`, or the :class:`Stream` it was promoted
        to. Either draws the stream's next float with ``random()``."""
        streams = self._streams
        rng = streams.get(name)
        if rng is None:
            rng = streams[name] = Uniform(derive_seed(self._master_seed, name), name, streams)
        return rng

    def buffered(self, name: str, clock) -> Buffered:
        """Return the buffered stream registered under ``name``, creating
        it lazily; ``clock.now`` (the simulator) times its fills."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = Buffered(derive_seed(self._master_seed, name), clock)
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> List[str]:
        """Names of the streams drawn from so far, in first-draw order."""
        return list(self._streams)


def first_draw(owner) -> Buffered:
    """Bind ``owner``'s stream at its first draw and keep it on
    ``owner._rng``.

    The owner declares its purpose as a class constant ``STREAM``, sets
    ``self._rng = None`` in its constructor (never ``host.rng(...)``) and
    draws through ``self._rng or first_draw(self)``: after the first draw
    the left operand is the bound stream, and when that stream is
    promoted it rebinds ``owner._rng`` to its live generator.
    """
    rng = owner._rng = owner.host.rng(owner.STREAM)
    rng.owner = owner
    return rng


def sample_without(rng: random.Random, population: Sequence[T], k: int) -> List[T]:
    """Sample ``k`` distinct items from ``population``.

    This is the canonical gossip target selection: a peer picks ``fout``
    peers uniformly at random among the other peers. If fewer than ``k``
    candidates exist the whole population is returned (in random order).
    """
    return sample_skipping(population, len(population), rng, k)


def sample_skipping(population: Sequence[T], skip: int, rng: random.Random, k: int) -> List[T]:
    """:func:`sample_without` over ``population`` minus the item at ``skip``.

    The candidates are ``population`` with position ``skip`` left out
    (``skip == len(population)`` leaves nothing out), so every membership
    view of an organisation can draw over the *same* shared array, each
    skipping its owner, instead of holding a private "everyone but me"
    copy (:meth:`repro.gossip.view.OrganizationView.sample_org` passes
    its shared array and its owner's position). The draw sequence is that
    of sampling from the materialised list of candidates, bit for bit.
    """
    size = len(population)
    n = size - 1 if skip < size else size
    if k >= n:
        shuffled = list(population)
        del shuffled[skip : skip + 1]
        rng.shuffle(shuffled)
        return shuffled
    # Inline of random.Random.sample (CPython 3.9+ algorithm) minus its
    # per-call ABC isinstance check and counts machinery, with
    # ``_randbelow_with_getrandbits`` inlined on top (one C ``getrandbits``
    # call per draw instead of a Python frame wrapping it). It MUST
    # consume ``rng.getrandbits`` bits exactly like rng.sample(candidates,
    # k) — gossip target selection is the single biggest RNG consumer and
    # the determinism contract pins the draw sequence bit-for-bit.
    getrandbits = rng.getrandbits
    result: List[T] = [None] * k  # type: ignore[list-item]
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(population)
        del pool[skip : skip + 1]
        for i in range(k):
            bound = n - i
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[bound - 1]
    else:
        selected: set = set()
        selected_add = selected.add
        bits = n.bit_length()
        for i in range(k):
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            while j in selected:
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
            selected_add(j)
            # Candidate j sits one slot later once past the skipped one.
            result[i] = population[j + (j >= skip)]
    return result
