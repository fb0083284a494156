"""Named deterministic random streams.

Every stochastic component of the simulation (gossip target selection,
network jitter, workload permutations, ...) draws from its own named stream
derived from a single master seed. This keeps runs reproducible and makes
components statistically independent: adding a draw in one component does
not perturb the sequence seen by another.

A stream exists from its first draw, not from the construction of the
component that owns it: a Mersenne-Twister state is 2.5 KB, a deployment
builds three to four stream owners per peer, and most of them never draw
(only a leader draws ``leader-initial-gossiper``). Seeds derive
from ``(master_seed, name)`` alone, so which owner draws first — or
whether one ever does — cannot move another stream's sequence.

A stream is kept in one of two ways, chosen by how often it draws:

* *dense* — a live :class:`Stream`, bound once by :func:`first_draw` and
  held by its owner: network latency and queue draws, push targets and
  background traffic, which draw every few milliseconds of simulated
  time, and the leaders' first gossipers, one stream per organization;
* *replayable* — a :class:`Replayable` handle, bound by
  :func:`first_replay`: the recovery component's phases, state-info
  targets and catch-up choice, and the pull component's phase and
  targets, which draw once every few seconds. The registry keeps such a
  stream as its seed and the number of 32-bit words drawn from it, and
  at most :data:`LIVE_REPLAYABLE` of them hold a live generator; opening
  any other one re-seeds an evicted generator in place and advances it
  by its word count, so it draws exactly what an always-live stream of
  the same name would.
"""

from __future__ import annotations

import _random
import hashlib
import random
from collections import OrderedDict
from math import ceil, log
from typing import Dict, List, Optional, Sequence, TypeVar, Union

T = TypeVar("T")

#: How many replayable streams of one registry hold a live generator at
#: once, least recently opened out first: 256 x 2.5 KB is ~0.64 MB. It
#: changes memory and time only, never a draw, and every 100-peer
#: deployment (two replayable streams per peer at most) stays within it.
LIVE_REPLAYABLE = 256

# The C methods a replayable generator counts around and re-seeds with.
_seed_in_place = _random.Random.seed
_next_bits = _random.Random.getrandbits
_next_double = _random.Random.random


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
    carries an instance ``__dict__`` (~330 B each, over 9,000 streams at
    3,000 peers). Draws, ``getstate()``, pickling and ``deepcopy`` are
    those of ``random.Random``."""

    __slots__ = ("gauss_next",)


class Replayed(Stream):
    """The live generator of a :class:`Replayable` stream: a
    :class:`Stream` that counts the 32-bit words it has consumed.

    Every draw reaches the Mersenne Twister through :meth:`random` (two
    words) or :meth:`getrandbits` (one word per 32 bits, none for
    ``k = 0``): ``uniform``, ``choice``, ``_randbelow``, ``shuffle`` and
    :func:`sample_skipping` all go through these two, so ``words`` is
    exactly how far the state has moved from its seed. ``gauss`` parks a
    value outside the state; a stream holding one cannot be replayed, and
    eviction refuses it.
    """

    __slots__ = ("words",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.words = 0

    def random(self) -> float:
        self.words += 2
        return _next_double(self)

    def getrandbits(self, k: int) -> int:
        bits = _next_bits(self, k)
        self.words += (k + 31) >> 5
        return bits


class Replayable:
    """A replayable stream: its seed, the words drawn from it as of its
    last eviction, and its live generator while it has one.

    Draw through :meth:`open` and do not keep what it returns: a
    generator is live until another stream of the registry is opened,
    which may evict it and re-seed the object for that stream.
    """

    __slots__ = ("_streams", "seed", "words", "_live")

    def __init__(self, streams: "RandomStreams", seed: int) -> None:
        self._streams = streams
        self.seed = seed
        self.words = 0
        self._live: Optional[Replayed] = None

    def open(self) -> Replayed:
        """The stream's generator, positioned where its last draw left it."""
        live = self._live
        if live is None:
            return self._streams._revive(self)
        self._streams._lru.move_to_end(self)
        return live


class RandomStreams:
    """Factory and registry of named streams: dense :class:`Stream`
    generators and :class:`Replayable` handles."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, Union[Stream, Replayable]] = {}
        # The replayable streams with a live generator, least recently
        # opened first.
        self._lru: "OrderedDict[Replayable, None]" = OrderedDict()
        #: Opens that re-seeded an evicted generator for another stream
        #: (and replayed that stream's words into it): what the budget
        #: costs in time. Zero while no more than the budget were opened.
        self.rebuilds = 0

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the dense stream registered under ``name``, creating it
        lazily."""
        rng = self._streams.get(name)
        if rng is None:
            rng = Stream(derive_seed(self._master_seed, name))
            self._streams[name] = rng
        elif type(rng) is Replayable:
            raise TypeError(f"stream {name!r} is replayable: draw from replayable({name!r}).open()")
        return rng

    def replayable(self, name: str) -> Replayable:
        """Return the replayable stream registered under ``name``, creating
        it lazily. It yields what ``stream(name)`` would, draw for draw."""
        handle = self._streams.get(name)
        if handle is None:
            handle = Replayable(self, derive_seed(self._master_seed, name))
            self._streams[name] = handle
        elif type(handle) is not Replayable:
            raise TypeError(f"stream {name!r} is dense: draw from stream({name!r})")
        return handle

    def _revive(self, handle: Replayable) -> Replayed:
        """Give ``handle`` a live generator: a new one while fewer than
        :data:`LIVE_REPLAYABLE` are live, else the least recently opened
        one's, re-seeded in place. Either way it is advanced by the words
        ``handle`` had drawn, in one C call."""
        lru = self._lru
        if len(lru) < LIVE_REPLAYABLE:
            live = Replayed(handle.seed)
        else:
            evicted = next(iter(lru))
            live = evicted._live
            if live.gauss_next is not None:
                raise RuntimeError(
                    "a replayable stream cannot be evicted with a gauss() value pending: "
                    "its word count does not hold it"
                )
            del lru[evicted]
            evicted.words = live.words
            evicted._live = None
            _seed_in_place(live, handle.seed)
            self.rebuilds += 1
        words = live.words = handle.words
        if words:
            _next_bits(live, 32 * words)
        handle._live = live
        lru[handle] = None
        return live

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child registry (e.g. per experiment run)."""
        return RandomStreams(derive_seed(self._master_seed, f"spawn:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> List[str]:
        """Names of the streams drawn from so far, in first-draw order."""
        return list(self._streams)


def first_draw(owner) -> random.Random:
    """Bind ``owner``'s dense stream at its first draw and keep it on
    ``owner._rng``.

    The owner declares its purpose as a class constant ``STREAM``, sets
    ``self._rng = None`` in its constructor (never ``host.rng(...)``: that
    would seed a state the owner may never use) and draws through
    ``self._rng or first_draw(self)`` — after the first draw the left
    operand is the bound :class:`random.Random` and this function is not
    called again. Dense streams are those that draw every few
    milliseconds (latency, push targets, background traffic) and the
    leaders' first gossipers, one per organization. A stream of every
    peer that draws once every few seconds is replayable instead
    (:func:`first_replay`).
    """
    rng = owner._rng = owner.host.rng(owner.STREAM)
    return rng


def first_replay(owner) -> Replayable:
    """Bind ``owner``'s replayable stream at its first draw and keep it on
    ``owner._stream``.

    The idiom of :func:`first_draw` for a stream that draws once every
    few seconds (recovery and pull): the owner sets ``self._stream =
    None`` and draws from ``(self._stream or first_replay(self)).open()``,
    holding the opened generator only for the draws of one callback.
    """
    handle = owner._stream = owner.host.replayable(owner.STREAM)
    return handle


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
