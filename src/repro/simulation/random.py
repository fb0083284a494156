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
:func:`first_draw` is the one binding idiom every owner uses.
"""

from __future__ import annotations

import hashlib
import random
from math import ceil, log
from typing import Dict, List, Sequence, TypeVar

T = TypeVar("T")


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


class RandomStreams:
    """Factory and registry of named :class:`Stream` generators."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it lazily."""
        rng = self._streams.get(name)
        if rng is None:
            rng = Stream(derive_seed(self._master_seed, name))
            self._streams[name] = rng
        return rng

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child registry (e.g. per experiment run)."""
        return RandomStreams(derive_seed(self._master_seed, f"spawn:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> List[str]:
        """Names of the streams drawn from so far, in first-draw order."""
        return list(self._streams)


def first_draw(owner) -> random.Random:
    """Bind ``owner``'s stream at its first draw and keep it on ``owner._rng``.

    The owner declares its purpose as a class constant ``STREAM``, sets
    ``self._rng = None`` in its constructor (never ``host.rng(...)``: that
    would seed a state the owner may never use) and draws through
    ``self._rng or first_draw(self)`` — after the first draw the left
    operand is the bound :class:`random.Random` and this function is not
    called again.
    """
    rng = owner._rng = owner.host.rng(owner.STREAM)
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
