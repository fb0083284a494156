"""Propagation latency models, and the declarative spec that names one.

The transfer time of a message is handled by the NIC serialization model in
:mod:`repro.net.network`; the latency model only contributes the one-way
propagation + processing delay. The default :class:`LanLatency` matches a
datacenter LAN: a small base delay plus a lognormal jitter tail, which is
what gives realistic sub-millisecond medians with occasional slow deliveries.

A :class:`LatencySpec` describes a model as data, one of four kinds
(``constant``, ``lan``, ``topology``, ``measured``); the table at the end
of this module maps each kind to the model it builds. Latency is described
one way: a spec (or a model) goes into a
:class:`~repro.net.network.NetworkConfig`, and no model is turned back into
a spec.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from types import MethodType
from typing import Any, Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from repro.simulation._core.kernels import lan_sample, topology_sample


def _freeze(value: Any) -> Any:
    """``value`` as a hashable spec param: sequences become tuples
    (recursively), and str / int / float / bool / None pass through."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"LatencySpec params must be str/int/float/bool/None or sequences "
        f"of them; got {type(value).__name__}"
    )


@dataclass(frozen=True)
class LatencySpec:
    """A latency model as data: a ``kind`` plus frozen keyword ``params``.

    Build one with :meth:`of` and the model with
    :meth:`LatencyModel.from_spec`::

        LatencySpec.of("lan", base=0.012)
        LatencySpec.of("measured", locations=("Virginia", "Tokyo"))

    A spec is frozen, hashable and equal by value (params are sorted by
    name), so it can sit in a :class:`~repro.scenarios.spec.ScenarioSpec`
    where a live model, with its bound samplers and memos, cannot.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError(f"LatencySpec.kind must be a non-empty string, got {self.kind!r}")
        params = dict(self.params)
        object.__setattr__(
            self, "params", tuple(sorted((str(k), _freeze(v)) for k, v in params.items()))
        )

    @classmethod
    def of(cls, kind: str, **params: Any) -> "LatencySpec":
        return cls(kind=kind, params=tuple(params.items()))


class LatencyModel:
    """Interface: one-way propagation delay for a (src, dst) pair."""

    @classmethod
    def from_spec(cls, spec: LatencySpec) -> "LatencyModel":
        """Build the model ``spec`` describes. Raises ``KeyError`` for a
        kind outside the four, ``TypeError`` for a non-spec."""
        if not isinstance(spec, LatencySpec):
            raise TypeError(f"expected a LatencySpec, got {type(spec).__name__}")
        try:
            build = _KINDS[spec.kind]
        except KeyError:
            raise KeyError(
                f"unknown latency kind {spec.kind!r}; kinds: {', '.join(sorted(_KINDS))}"
            ) from None
        return build(**dict(spec.params))

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError

    def bind(self, rng: random.Random) -> "Callable[[str, str], float]":
        """Return a ``(src, dst) -> delay`` sampler pre-bound to ``rng``.

        The network's fan-out kernel calls the sampler once per copy, in
        destination order, so subclasses specialize this to hoist
        attribute lookups out of the per-message path. Bound samplers
        MUST draw from ``rng`` exactly like :meth:`sample` — the
        determinism contract compares metrics bit-for-bit across
        refactors — and through its ``random()`` alone: the network binds
        the sender's :class:`~repro.simulation.random.Uniform` source,
        reading its ``random`` once here, and binds again, to the live
        generator, when the source is promoted.
        """
        return lambda src, dst: self.sample(rng, src, dst)

    def min_delay(self) -> float:
        """A lower bound on any delay this model can produce.

        The process-sharded executor derives its conservative window
        lookahead from this bound (``docs/sharding.md``): every message
        crossing a shard boundary is in flight for at least this long, so
        windows no longer than the bound never miss a cross-shard
        delivery. The bound need not be attained, but MUST never be
        exceeded from below — returning 0.0 (the safe default) forces
        single-process execution.
        """
        return 0.0


class ConstantLatency(LatencyModel):
    """Fixed delay; handy for deterministic unit tests."""

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # `not >=` also rejects NaN
            raise ValueError(f"latency must be >= 0, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay

    def bind(self, rng: random.Random) -> "Callable[[str, str], float]":
        delay = self.delay
        return lambda src, dst: delay

    def min_delay(self) -> float:
        return self.delay


class TopologyLatency(LatencyModel):
    """Region-topology latency: per-(region, region) base delay plus an
    optional lognormal jitter tail.

    This is the WAN generalization of :class:`LanLatency`: every node is
    placed in a *region* (a datacenter / cloud zone), and each ordered
    region pair resolves to ``(base, jitter_median, jitter_sigma)``
    parameters. Lookups are symmetric — ``(a, b)`` falls back to
    ``(b, a)`` — and pairs without an entry (or nodes without a region)
    use ``default``. Intra-region delay is expressed as the diagonal
    ``(r, r)`` entries, so a matrix built from
    :class:`repro.scenarios.RegionTopology` fully describes the topology.

    The node→region assignment may be deferred: scenario declarations
    carry only the region matrix, and :func:`repro.experiments.builders.
    build_network` calls :meth:`assign_regions` once peer names exist —
    necessarily *before* the :class:`~repro.net.network.Network` binds its
    samplers.

    RNG-order contract: :meth:`bind` consumes ``rng`` exactly as
    :meth:`sample` does — one lognormal draw per jittered copy, none for
    a base-only pair, in destination order — so multicast fanouts
    reproduce a per-copy ``send`` loop bit-for-bit.

    Args:
        matrix: ``{(region, region): params}`` where params is a
            ``(base, jitter_median, jitter_sigma)`` tuple (shorter tuples
            and bare floats are padded with ``jitter_median=0`` /
            ``jitter_sigma=0.8``).
        default: parameters for unmatched pairs and unplaced nodes.
        region_of: optional node→region map (usually assigned later).
    """

    def __init__(
        self,
        matrix: "dict",
        default=0.048,
        region_of: "Optional[dict]" = None,
    ) -> None:
        self._matrix = {
            (src, dst): self._normalize(params) for (src, dst), params in matrix.items()
        }
        self._default = self._normalize(default)
        self._region_of: dict = dict(region_of) if region_of else {}
        # (src_region, dst_region) -> params with the symmetric and default
        # fallbacks applied (``None`` stands for an unplaced node): at most
        # (regions + 1)^2 entries, so the per-message resolve is two
        # placement probes and one memo probe whatever the deployment size.
        self._pair_params: dict = {}
        # What every sender's bound sampler shares but its stream (bind).
        self._shared = (self._region_of, self._pair_params, self._resolve)

    @staticmethod
    def _normalize(params):
        """Return ``(base, mu_or_None, sigma)`` with mu precomputed."""
        if isinstance(params, (int, float)):
            params = (float(params),)
        parts = tuple(params)
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"latency params must be (base[, jitter_median[, sigma]]), got {params!r}")
        base = float(parts[0])
        jitter_median = float(parts[1]) if len(parts) > 1 else 0.0
        jitter_sigma = float(parts[2]) if len(parts) > 2 else 0.8
        if not (base >= 0 and jitter_median >= 0 and jitter_sigma >= 0):  # rejects NaN too
            raise ValueError("latency parameters must be >= 0")
        mu = math.log(jitter_median) if jitter_median > 0 else None
        return (base, mu, jitter_sigma)

    def assign_regions(self, region_of: "dict") -> None:
        """Place (or re-place) nodes into regions."""
        self._region_of.update(region_of)

    @property
    def regions(self) -> "FrozenSet[str]":
        """The region names its matrix declares."""
        return frozenset(region for pair in self._matrix for region in pair)

    def _resolve(self, src_region: "Optional[str]", dst_region: "Optional[str]"):
        if src_region is None or dst_region is None:
            params = self._default
        else:
            matrix = self._matrix
            params = matrix.get((src_region, dst_region))
            if params is None:
                params = matrix.get((dst_region, src_region), self._default)
        self._pair_params[(src_region, dst_region)] = params
        return params

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        region_of = self._region_of
        src_region, dst_region = region_of.get(src), region_of.get(dst)
        params = self._pair_params.get((src_region, dst_region))
        if params is None:
            params = self._resolve(src_region, dst_region)
        base, mu, sigma = params
        if mu is None:
            return base
        return base + rng.lognormvariate(mu, sigma)

    def min_delay(self) -> float:
        """Smallest base across all declared pairs and the default.

        The lognormal jitter is strictly positive, so every pair's base is
        a true lower bound on its delay.
        """
        bases = [params[0] for params in self._matrix.values()]
        bases.append(self._default[0])
        return min(bases)

    def min_delay_between_regions(self, region_a: str, region_b: str) -> float:
        """Lower bound on the delay of one (region, region) link class.

        The shard planner computes its lookahead as the minimum of this
        over all region pairs that cross a shard boundary — a much
        tighter window than the global :meth:`min_delay` when fast
        intra-region links never cross shards (region-aligned sharding).
        """
        params = self._matrix.get((region_a, region_b))
        if params is None:
            params = self._matrix.get((region_b, region_a), self._default)
        return params[0]

    def bind(self, rng: random.Random) -> "Callable[[str, str], float]":
        # Same draw sequence as sample() with the attribute lookups hoisted
        # and rng.lognormvariate inlined: the module-level kernel bound to
        # this sender's parameters, like LanLatency.bind.
        return MethodType(topology_sample, (rng.random, *self._shared))


class LanLatency(LatencyModel):
    """Datacenter LAN one-way delay: base cost plus lognormal jitter.

    ``base`` covers propagation *and* the per-message software cost a Fabric
    peer pays on every gossip message (gRPC framing, protobuf decoding,
    signature checks, store locking) — the dominant per-hop delay on a LAN,
    far larger than wire propagation. Defaults are calibrated against the
    paper's testbed (Docker on 8-core Xeons, 1 Gbps Ethernet): ~12 ms base
    with a small lognormal tail reproduces the paper's absolute scales —
    enhanced push completing within ~0.5 s over 9 forwarding generations
    (Fig. 7) and the original push reaching 95% of peers within a few
    hundred milliseconds (§V-D).

    Args:
        base: deterministic propagation + per-message processing floor.
        jitter_median: median of the lognormal jitter component.
        jitter_sigma: sigma of the underlying normal; larger => fatter tail.
    """

    def __init__(
        self,
        base: float = 0.012,
        jitter_median: float = 0.003,
        jitter_sigma: float = 0.8,
    ) -> None:
        if not (base >= 0 and jitter_median >= 0 and jitter_sigma >= 0):  # rejects NaN too
            raise ValueError("latency parameters must be >= 0")
        self.base = base
        self.jitter_median = jitter_median
        self.jitter_sigma = jitter_sigma
        self._mu = math.log(jitter_median) if jitter_median > 0 else None

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        jitter = 0.0
        if self._mu is not None:
            jitter = rng.lognormvariate(self._mu, self.jitter_sigma)
        return self.base + jitter

    def min_delay(self) -> float:
        return self.base

    def bind(self, rng: random.Random) -> "Callable[[str, str], float]":
        base = self.base
        if self._mu is None:
            return lambda src, dst: base
        # Inline of rng.lognormvariate(mu, sigma) — the stdlib pair of call
        # frames (lognormvariate -> normalvariate) costs more than the draw
        # itself on this path. The kernel replicates random.normalvariate's
        # Kinderman-Monahan rejection sampling verbatim (same NV_MAGICCONST,
        # same order of rng.random() consumption), so the draw sequence and
        # results are bit-for-bit those of the un-bound sample(). It lives
        # in repro.simulation._core.kernels with the other per-copy kernels;
        # one sender costs the method object binding it to a 4-tuple.
        return MethodType(lan_sample, (rng.random, base, self._mu, self.jitter_sigma))


# ---------------------------------------------------------------------------
# Measured (data-driven) latency
# ---------------------------------------------------------------------------

#: Ships with the package: a symmetric country-level RTT matrix (median
#: city-to-city RTTs in milliseconds between representative datacenter
#: locations, hand-assembled from public inter-region measurements).
DEFAULT_MEASURED_DATASET = os.path.join(os.path.dirname(__file__), "data", "measured_latency.json")

_measured_cache: Dict[str, dict] = {}


def _load_measured_dataset(path: str) -> dict:
    data = _measured_cache.get(path)
    if data is None:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        for key in ("locations", "rtt_ms"):
            if key not in data:
                raise ValueError(f"measured latency dataset {path!r} missing {key!r}")
        _measured_cache[path] = data
    return data


def measured_jitter_ratio(base: float) -> float:
    """Jitter median as a fraction of the one-way base delay.

    Distance-based: long paths cross more queues and more diverse routes,
    so their jitter grows with the base delay (5% floor for same-metro
    paths, saturating at 20% for intercontinental ones).
    """
    ratio = 0.05 + base
    return ratio if ratio < 0.20 else 0.20


class MeasuredLatency(TopologyLatency):
    """Latency model backed by a measured RTT matrix loaded from JSON.

    The dataset maps location pairs (countries/metros hosting the
    datacenters peers run in) to median RTTs in milliseconds; the model
    halves them into one-way base delays and adds a lognormal jitter tail
    whose median scales with distance (:func:`measured_jitter_ratio`).
    Being a :class:`TopologyLatency` subclass it inherits the bound-sampler
    RNG contract, deferred :meth:`~TopologyLatency.assign_regions`
    placement, and the per-region-pair ``min_delay`` bounds the shard
    planner uses — a measured topology shards exactly like a declared one.

    Args:
        locations: optional subset of dataset locations to expose
            (unknown names raise); ``None`` exposes the full matrix.
        dataset: path to an alternative JSON dataset; ``None`` loads the
            packaged :data:`DEFAULT_MEASURED_DATASET`.
        jitter: set ``False`` for deterministic base-only delays.
    """

    def __init__(
        self,
        locations: "Optional[Sequence[str]]" = None,
        dataset: "Optional[str]" = None,
        jitter: bool = True,
    ) -> None:
        path = dataset if dataset is not None else DEFAULT_MEASURED_DATASET
        data = _load_measured_dataset(path)
        known = tuple(data["locations"])
        if locations is None:
            chosen = known
        else:
            chosen = tuple(locations)
            unknown = [name for name in chosen if name not in known]
            if unknown:
                raise ValueError(
                    f"unknown measured locations {unknown!r}; dataset has {list(known)}"
                )
        rtt_ms = data["rtt_ms"]
        default_rtt = float(data.get("default_rtt_ms", 160.0))
        matrix = {}
        for index, loc_a in enumerate(chosen):
            for loc_b in chosen[index:]:
                ms = rtt_ms.get(f"{loc_a}|{loc_b}")
                if ms is None:
                    ms = rtt_ms.get(f"{loc_b}|{loc_a}", default_rtt)
                matrix[(loc_a, loc_b)] = self._params_for(float(ms), jitter)
        super().__init__(matrix, default=self._params_for(default_rtt, jitter))

    @staticmethod
    def _params_for(rtt_ms: float, jitter: bool) -> "Tuple[float, float, float]":
        base = rtt_ms / 2000.0  # median RTT in ms -> one-way seconds
        if not jitter:
            return (base, 0.0, 0.8)
        return (base, base * measured_jitter_ratio(base), 0.8)


def _build_topology(matrix=(), default=0.048) -> TopologyLatency:
    return TopologyLatency({(src, dst): params for src, dst, params in matrix}, default=default)


# The closed set of kinds a LatencySpec may name (LatencyModel.from_spec).
_KINDS: Dict[str, Callable[..., LatencyModel]] = {
    "constant": ConstantLatency,
    "lan": LanLatency,
    "topology": _build_topology,
    "measured": MeasuredLatency,
}
