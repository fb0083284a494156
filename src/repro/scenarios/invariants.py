"""End-of-run invariants over a finished single-process scenario run.

Each invariant is a property every run must end with, whatever its
faults, churn or adversaries; :func:`violations` lists the ones a run
breaks, as readable lines (empty for a sound run). A violation is a bug in
the program, never a case to allow:

* no enhanced peer keeps digest state (a ``_Missing`` record: holders,
  queued pairs, waiting requests, an in-flight request) for a block it
  holds — settling on every arrival path is what forwards those pairs and
  serves those requests;
* the tracker's first receptions equal the peers' chain contents: every
  peer holds exactly the blocks the tracker saw it receive first, the
  tracker saw no reception at a name that is no peer of the run, every
  holder of a block number holds the same block, and every committed
  prefix links — a block held without a first reception (or the
  reverse), or two blocks under one number, would skew every latency and
  coverage figure.
"""

from __future__ import annotations

from typing import Dict, List

from repro.gossip.enhanced import EnhancedGossip
from repro.scenarios.runner import ScenarioRun


def violations(run: ScenarioRun) -> List[str]:
    """The invariants ``run`` breaks at its end, one line each."""
    tracker = run.result.tracker
    peers = run.result.net.peers
    found: List[str] = []
    for name in sorted(set(tracker.receivers()) - peers.keys()):
        found.append(f"{name} is no peer of the run but first received {tracker.received_blocks(name)}")
    # Block number -> hash of the block the first holder (by name) holds.
    canonical: Dict[int, str] = {}
    for name, peer in sorted(peers.items()):
        top = peer.blockchain.max_known_number()
        held = [number for number in range(top + 1) if peer.get_block(number) is not None]
        received = tracker.received_blocks(name)
        if held != received:
            found.append(f"{name} holds blocks {held} but first received {received}")
        differing = []
        for number in held:
            block_hash = peer.get_block(number).block_hash
            if canonical.setdefault(number, block_hash) != block_hash:
                differing.append(number)
        if differing:
            found.append(f"{name} holds other blocks than its peers under numbers {differing}")
        if not peer.blockchain.verify_committed_chain():
            found.append(f"{name}'s committed chain does not link")
        if isinstance(peer.gossip, EnhancedGossip):
            stale = [n for n in peer.gossip.push.missing_numbers() if peer.get_block(n) is not None]
            if stale:
                found.append(f"{name} keeps digest state for blocks it holds: {stale}")
    return found
