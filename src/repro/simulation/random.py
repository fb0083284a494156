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

A stream is kept in one of two ways:

* *dense* — a :class:`Stream`, a live 2.5 KB Mersenne-Twister state:
  ``network:latency:*``, ``network:queue:*``, ``faults:*`` and
  ``workload:*``, which the network kernels draw per copy through bound C
  methods (:meth:`RandomStreams.stream`);
* *buffered* — a :class:`Buffered`, every stream a process draws from
  (:meth:`repro.simulation.process.Process.rng`): push targets, recovery,
  pull, background traffic and the leaders' first gossipers. It is its
  seed, the next few 32-bit words of the Mersenne-Twister sequence and
  the index just past them, refilled from the seed when spent. Most such streams draw a few times and go idle,
  or a few words every few seconds, and cost ~0.3 KB instead of 2.5 KB;
  one that spends its fills fast (push targets while blocks spread) is
  *promoted* to a live :class:`Stream`, which its owner then draws from
  directly. Either way it draws exactly what a :class:`Stream` of the
  same name would.
"""

from __future__ import annotations

import _random
import hashlib
import random
import sys
from array import array
from math import ceil, log
from typing import Dict, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")

#: Words in a buffered stream's first fill; each later fill doubles.
FIRST_FILL = 16
#: The largest fill. Three fills (16 + 32 + 64 = 112 words) hold a cold
#: stream's draws in at most 256 B, a tenth of the 624-word state; every
#: later fill is this size too.
LAST_FILL = 64
#: Simulated seconds: a stream that spends a :data:`LAST_FILL` fill in less
#: is promoted, as each refill re-seeds and advances from the start. The
#: enhanced push and background streams take 0.3-8 s; recovery, pull, the
#: leaders' and the original push streams take 25-81 s and stay buffered.
HOT_SPAN = 16.0

# The C methods a fill re-seeds and reads the scratch generator with.
_seed_in_place = _random.Random.seed
_next_bits = _random.Random.getrandbits
# The generator every fill re-seeds and reads: it carries nothing over.
_SCRATCH = _random.Random(0)
# The buffer of a stream that has not drawn yet or has been promoted.
_NO_WORDS = array("I")
_BIG_ENDIAN = sys.byteorder == "big"


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
    more: the slot holds the one attribute ``Random`` sets, so no stream
    carries an instance ``__dict__`` (~330 B each, over 3,000 dense
    streams at 3,000 peers). Draws, ``getstate()``, pickling and
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

    A stream that spends a fill of :data:`LAST_FILL` words within
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
            size = LAST_FILL
            if now - self.filled_at < HOT_SPAN:
                live = self._live = Stream(self.seed)
                _next_bits(live, 32 * index)
                self.words = _NO_WORDS
                if self.owner is not None:
                    self.owner._rng = live
                return
        self.filled_at = now
        scratch = _SCRATCH
        _seed_in_place(scratch, self.seed)
        if index:
            _next_bits(scratch, 32 * index)
        # The first word drawn is the least significant: big-endian bytes
        # put it last, where pop() takes it first.
        words = self.words = array("I", _next_bits(scratch, 32 * size).to_bytes(4 * size, "big"))
        if not _BIG_ENDIAN:
            words.byteswap()
        self.index = index + size


class RandomStreams:
    """Factory and registry of named streams: dense :class:`Stream`
    generators and :class:`Buffered` ones."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, Union[Stream, Buffered]] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> Stream:
        """Return the dense stream registered under ``name``, creating it
        lazily."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = Stream(derive_seed(self._master_seed, name))
        elif type(rng) is not Stream:
            raise TypeError(f"stream {name!r} is buffered: draw from buffered({name!r})")
        return rng

    def buffered(self, name: str, clock) -> Buffered:
        """Return the buffered stream registered under ``name``, creating
        it lazily; ``clock.now`` (the simulator) times its fills. It draws
        what ``stream(name)`` would, draw for draw."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = Buffered(derive_seed(self._master_seed, name), clock)
        elif type(rng) is not Buffered:
            raise TypeError(f"stream {name!r} is dense: draw from stream({name!r})")
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
