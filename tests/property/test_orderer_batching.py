"""Property test: the orderer cuts exactly the blocks Fabric's batching
rule describes.

A batch is cut when it holds ``max_tx_per_block`` transactions or when
its timeout, counted from its first transaction, expires. The timeout
carries its batch's number, so the stale timeout of a batch already cut
by size cuts nothing, however the next batch's submissions fall around
it. Times are quarter-second multiples, exact in binary, so every sum is
exact and the only ties are real ones: a submission scheduled before the
run precedes a timeout due at the same instant.
"""

from hypothesis import given, settings, strategies as st

from repro.fabric.config import OrdererConfig
from repro.fabric.orderer import OrderingService
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.transaction import TransactionProposal
from repro.net.latency import ConstantLatency
from repro.net.network import Network, NetworkConfig
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams

from tests.conftest import routes_to

_QUARTER = 0.25


def reference_cuts(times, max_tx, timeout):
    """``[(cut time, tx count)]`` of the batching rule, by hand."""
    cuts = []
    size, deadline = 0, None
    for time in times:
        if deadline is not None and deadline < time:
            cuts.append((deadline, size))
            size, deadline = 0, None
        size += 1
        if size >= max_tx:
            cuts.append((time, size))
            size, deadline = 0, None
        elif size == 1:
            deadline = time + timeout
    if deadline is not None:
        cuts.append((deadline, size))
    return cuts


def orderer_cuts(times, max_tx, timeout):
    sim, streams = Simulator(), RandomStreams(1)
    network = Network(sim, streams, NetworkConfig(latency=ConstantLatency(0.001)))
    blocks = []
    network.register("leader", routes_to(lambda src, message: blocks.append(message.block)))
    config = OrdererConfig(max_tx_per_block=max_tx, batch_timeout=timeout, consensus_delay=0.0)
    orderer = OrderingService(sim, network, streams, config=config, org_leaders={"o": "leader"})
    for index, time in enumerate(times):
        proposal = TransactionProposal(
            tx_id=f"t{index}", client="c", chaincode_id="cc", args=(), rwset=ReadWriteSet()
        )
        sim.schedule_at(time, orderer.submit, proposal)
    sim.run()
    assert orderer.pending_transactions == 0
    return [(block.cut_at, block.tx_count) for block in blocks]


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=30),
    st.integers(1, 6),
    st.integers(1, 12),
)
@settings(max_examples=80, deadline=None)
def test_orderer_cuts_what_the_batching_rule_says(quarters, max_tx, timeout_quarters):
    times = [q * _QUARTER for q in sorted(quarters)]
    timeout = timeout_quarters * _QUARTER
    assert orderer_cuts(times, max_tx, timeout) == reference_cuts(times, max_tx, timeout)
