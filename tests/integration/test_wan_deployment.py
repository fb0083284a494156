"""Integration: multi-datacenter (WAN) deployments."""

from repro.experiments.builders import build_network
from repro.experiments.workloads import synthetic_block_transactions
from repro.gossip.config import EnhancedGossipConfig
from repro.net.latency import TopologyLatency
from repro.net.network import NetworkConfig


def build_wan_net(inter_delay: float, seed: int = 9):
    # 2 orgs x 8 peers, one site per org.
    site_of = {}
    for index in range(16):
        site_of[f"peer-{index}"] = f"dc{index % 2}"
    # 2 ms within a site (a diagonal entry per site), ``inter_delay``
    # between sites and to the unplaced orderer (the default).
    config = NetworkConfig(
        latency=TopologyLatency(
            {("dc0", "dc0"): 0.002, ("dc1", "dc1"): 0.002},
            default=inter_delay,
            region_of=site_of,
        )
    )
    net = build_network(
        n_peers=16, gossip=EnhancedGossipConfig.paper_f4(), organizations=2,
        seed=seed, network_config=config,
    )
    return net


def run_blocks(net, count=4):
    net.start()
    transactions = synthetic_block_transactions(5, 1_000)
    for index in range(count):
        net.sim.schedule_at(0.5 + 0.5 * index, net.orderer.emit_block, transactions)
    net.run_until(
        lambda: all(p.blockchain.max_known_number() >= count - 1 for p in net.peers.values()),
        step=1.0,
        max_time=60.0,
    )


def test_wan_dissemination_completes():
    net = build_wan_net(inter_delay=0.045)
    run_blocks(net)
    assert all(p.blockchain.has_block(3) for p in net.peers.values())


def test_gossip_latency_unaffected_by_wan_delay():
    """Gossip is org-local (intra-site): only the orderer->leader hop pays
    the WAN delay, which cancels out of the per-block latency measurement
    (t0 is the leader's reception)."""
    near = build_wan_net(inter_delay=0.010)
    run_blocks(near)
    far = build_wan_net(inter_delay=0.100)
    run_blocks(far)
    worst_near = max(near.tracker.all_latencies())
    worst_far = max(far.tracker.all_latencies())
    # Same seeds, same intra-site model: dissemination shape unchanged.
    assert abs(worst_far - worst_near) < 0.05


def test_orderer_to_leader_delay_reflects_wan():
    far = build_wan_net(inter_delay=0.100)
    run_blocks(far)
    delay = far.tracker.orderer_to_leader_delay(0)
    assert delay is not None and delay >= 0.100
