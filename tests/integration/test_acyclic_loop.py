"""The event loop leaves nothing for the cyclic collector.

Delivery events carry plain argument tuples, so everything a run allocates
per message dies by reference count. Ten overlapping epidemics at 300
peers keep more deliveries in flight than any free list would hold; the
self-referencing pooled records this replaced left 4,958 objects to the
collector on exactly this run.
"""

import gc

from repro.experiments.builders import build_network
from repro.experiments.workloads import synthetic_block_transactions
from repro.gossip.config import EnhancedGossipConfig


def test_enhanced_run_collects_no_cyclic_garbage():
    net = build_network(n_peers=300, gossip=EnhancedGossipConfig.paper_f4(), seed=1)
    net.start()
    transactions = synthetic_block_transactions(50, 3_200)
    for index in range(10):
        net.sim.schedule_at(0.5 + index * 0.01, net.orderer.emit_block, transactions)
    passes = []

    def watch(phase, info):
        if phase == "stop":
            passes.append(info["collected"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # earlier tests' garbage is not this run's
    gc.callbacks.append(watch)
    try:
        net.sim.run(until=3.0)
        # Dead cycles promoted to the oldest generation while in flight
        # only surface in a full pass: force one inside the watch.
        gc.collect()
    finally:
        gc.callbacks.remove(watch)
        if not was_enabled:
            gc.disable()
    assert net.sim.events_executed > 50_000
    assert len(passes) > 10  # the collector did run during the loop
    assert sum(passes) == 0
