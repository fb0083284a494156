"""Monte Carlo models of both push phases.

Abstract, network-free simulations used to cross-validate the exact
analysis (:mod:`repro.analysis.infect_and_die`) and the pe bound
(:mod:`repro.analysis.pe`) against sampled behaviour, independently of the
full discrete-event stack. These run per-round and per-pair semantics
identical to the deployed protocols but without latency or bandwidth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass
class PushSampleStats:
    """Sampled coverage statistics over many independent pushes."""

    runs: int
    mean_informed: float
    std_informed: float
    min_informed: int
    max_informed: int
    full_coverage_fraction: float
    mean_full_transmissions: float


def _stats(informed_counts: List[int], transmissions: List[int], n: int) -> PushSampleStats:
    runs = len(informed_counts)
    mean = sum(informed_counts) / runs
    variance = sum((count - mean) ** 2 for count in informed_counts) / runs
    return PushSampleStats(
        runs=runs,
        mean_informed=mean,
        std_informed=variance**0.5,
        min_informed=min(informed_counts),
        max_informed=max(informed_counts),
        full_coverage_fraction=sum(1 for count in informed_counts if count == n) / runs,
        mean_full_transmissions=sum(transmissions) / runs,
    )


def simulate_infect_and_die(
    n: int,
    fout: int,
    runs: int,
    rng: Optional[random.Random] = None,
) -> PushSampleStats:
    """Sample the original push: each newly infected peer pushes once to
    fout distinct random peers; pulls/recovery excluded."""
    if rng is None:
        rng = random.Random(0)
    peer_ids = list(range(n))
    informed_counts: List[int] = []
    transmissions: List[int] = []
    for _ in range(runs):
        infected = {0}
        frontier = [0]
        sent = 0
        while frontier:
            peer = frontier.pop()
            targets = rng.sample(peer_ids[:peer] + peer_ids[peer + 1 :], fout)
            sent += fout
            for target in targets:
                if target not in infected:
                    infected.add(target)
                    frontier.append(target)
        informed_counts.append(len(infected))
        transmissions.append(sent)
    return _stats(informed_counts, transmissions, n)


def simulate_infect_upon_contagion(
    n: int,
    fout: int,
    ttl: int,
    runs: int,
    rng: Optional[random.Random] = None,
) -> PushSampleStats:
    """Sample the enhanced push at the pair level.

    Every first reception of a pair (counter k < TTL) forwards the pair
    with counter k+1 to fout distinct random peers — regardless of whether
    the receiver already knew the block, exactly as in
    :class:`repro.gossip.push_infect_contagion.InfectUponContagionPush`.
    Transmission counts here are *pair messages* (digests), not full
    blocks.
    """
    if rng is None:
        rng = random.Random(0)
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    peer_ids = list(range(n))
    informed_counts: List[int] = []
    transmissions: List[int] = []
    for _ in range(runs):
        seen_pairs = [set() for _ in range(n)]
        informed = {0}
        seen_pairs[0].add(0)
        frontier = [(0, 0)]  # (peer, counter just received)
        sent = 0
        while frontier:
            peer, counter = frontier.pop()
            next_counter = counter + 1
            if next_counter > ttl:
                continue
            targets = rng.sample(peer_ids[:peer] + peer_ids[peer + 1 :], fout)
            sent += fout
            for target in targets:
                informed.add(target)
                if next_counter not in seen_pairs[target]:
                    seen_pairs[target].add(next_counter)
                    frontier.append((target, next_counter))
        informed_counts.append(len(informed))
        transmissions.append(sent)
    return _stats(informed_counts, transmissions, n)
