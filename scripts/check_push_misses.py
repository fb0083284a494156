#!/usr/bin/env python
"""Check the simulator's push misses against the pair-level model.

The enhanced push alone (recovery and state info pushed to 1e9 s) at
n = 100, f_out = 4, ``ttl_direct`` = 2, 300 blocks (numbered 0..299) per
seed, at two cells: TTL 5 on seeds 1-4 against 4,000 Monte Carlo runs,
and TTL 6 on seeds 1-8 against 20,000. TTL 6 misses a peer on about one
block in 200, so it needs twice the seeds (and a steadier model) to see a
dozen misses; that is why it is not in tier-1. The TTL 5 cell is the
tier-1 test ``tests/experiments/test_dissemination.py::
test_push_misses_agree_with_the_pair_level_monte_carlo_model``, which
calls :func:`compare` from here, so the bands live in one place:

* every block 0..299 reaches at least one peer and at most n;
* the per-block miss rate lies within three standard errors (of both
  samples) of the pair-level Monte Carlo model's;
* it lies under the union bound ``n (1 - 1/n)^m``;
* digests per block lie within 4% of what the psi recursion expects of
  counters 3..TTL (the pairs of counters 1 and 2 go as full blocks).

Prints one row per cell and exits 1 if any row is outside a band. Takes
about a minute.

Usage::

    python scripts/check_push_misses.py
"""

from __future__ import annotations

import math
import os
import sys
from typing import List, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.montecarlo import simulate_infect_upon_contagion  # noqa: E402
from repro.analysis.pe import expected_digests, imperfect_dissemination_probability  # noqa: E402
from repro.experiments.dissemination import DisseminationConfig, run_coverage  # noqa: E402
from repro.gossip.config import EnhancedGossipConfig, RecoveryConfig  # noqa: E402

N, FOUT, TTL_DIRECT, BLOCKS = 100, 4, 2, 300
# (ttl, seeds, Monte Carlo runs)
CELLS = ((5, (1, 2, 3, 4), 4_000), (6, (1, 2, 3, 4, 5, 6, 7, 8), 20_000))
DIGEST_BAND = 0.04


def compare(ttl: int, seeds: Sequence[int], runs: int) -> Tuple[str, List[str]]:
    """Run the push alone at ``ttl`` on ``seeds``; return a summary row
    and the bands it breaks (none when it agrees with the model)."""
    gossip = EnhancedGossipConfig(
        fout=FOUT,
        ttl=ttl,
        ttl_direct=TTL_DIRECT,
        recovery=RecoveryConfig(t_recovery=1e9, t_state_info=1e9),
    )
    broken = []
    missed = digests = 0
    for seed in seeds:
        run = run_coverage(
            DisseminationConfig(gossip=gossip, n_peers=N, blocks=BLOCKS, seed=seed, grace_period=5.0)
        )
        reach = run.tracker.coverage(N)
        if sorted(reach) != list(range(BLOCKS)):
            broken.append(f"seed {seed}: blocks reached {sorted(reach)[:3]}..., not 0..{BLOCKS - 1}")
        if not all(0 < count <= N for count in reach.values()):
            broken.append(f"seed {seed}: a block's reach is outside 1..{N}")
        missed += sum(count < N for count in reach.values())
        digests += run.bandwidth_report().message_counts()["PushDigest"]
    trials = BLOCKS * len(seeds)
    simulated = missed / trials
    modelled = 1.0 - simulate_infect_upon_contagion(N, FOUT, ttl, runs).full_coverage_fraction
    sigma = math.sqrt(modelled * (1.0 - modelled) * (1.0 / trials + 1.0 / runs))
    z = (simulated - modelled) / sigma
    if abs(z) > 3.0:
        broken.append(f"miss rate {z:+.2f} sigma from the model")
    bound = imperfect_dissemination_probability(N, FOUT, ttl)
    if not simulated < bound:
        broken.append(f"miss rate not under the union bound {bound:.3f}")
    expected = expected_digests(N, FOUT, ttl, method="psi") - expected_digests(
        N, FOUT, TTL_DIRECT, method="psi"
    )
    per_block = digests / trials
    drift = per_block / expected - 1.0
    if abs(drift) > DIGEST_BAND:
        broken.append(f"digests per block {drift:+.1%} off the psi recursion")
    summary = (
        f"TTL {ttl}, seeds {seeds[0]}-{seeds[-1]}: P(miss) {simulated:.4f} ({missed} / {trials}), "
        f"Monte Carlo {modelled:.4f} over {runs:,} runs, z = {z:+.2f}, "
        f"union bound {bound:.3f}; digests per block {per_block:.1f} against psi {expected:.1f} "
        f"({drift:+.1%})"
    )
    return summary, broken


def main() -> int:
    ok = True
    for cell in CELLS:
        summary, broken = compare(*cell)
        print(f"{summary}: {'; '.join(broken) if broken else 'ok'}")
        ok = ok and not broken
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
