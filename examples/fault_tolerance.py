#!/usr/bin/env python3
"""Fault tolerance: crashes, silent (adversarial) peers and packet loss.

The paper keeps recovery (anti-entropy) precisely for crash/outage
resilience (§III-A) and leaves adversarial peers to future work (§VII).
This example exercises both with the enhanced gossip module:

1. a peer crashes mid-run and catches up through recovery after restarting;
2. 20% of peers free-ride (never forward or advertise) — the epidemic's
   redundancy budget absorbs them;
3. 20% of peers *tease* (advertise digests, never deliver): stalled
   requests are retried against different digest holders, with recovery
   as the backstop — the countermeasure the paper's §VII calls for;
4. 5% uniform packet loss — the TTL is chosen for pe = 1e-6 under ideal
   conditions, and the surviving redundancy still covers everyone.

Usage::

    python examples/fault_tolerance.py
"""

from repro import EnhancedGossipConfig, build_network
from repro.faults import CrashSchedule, LazyForwarderFault, LinkDegradeFault, TeasingPeerFault
from repro.experiments.workloads import synthetic_block_transactions


def drive_blocks(net, count, period=1.0, tx_per_block=10):
    transactions = synthetic_block_transactions(tx_per_block, 3_200)
    for index in range(count):
        net.sim.schedule_at(0.5 + index * period, net.orderer.emit_block, transactions)


def scenario_crash_and_recover() -> None:
    print("=== 1. crash and recovery ===")
    net = build_network(n_peers=30, gossip=EnhancedGossipConfig.paper_f4(), seed=1)
    net.start()
    victim = net.peers["peer-13"]
    CrashSchedule(victim, crash_at=2.0, recover_at=10.0).arm(net.sim)
    drive_blocks(net, count=12)
    net.run_until(
        lambda: all(p.ledger_height >= 12 for p in net.peers.values()),
        step=1.0, max_time=120.0,
    )
    print("peer-13 crashed at t=2 s, recovered at t=10 s, final height "
          f"{victim.ledger_height}/12")
    print("blocks it fetched through the recovery component: "
          f"{victim.blocks_received_via['recovery']}")
    assert victim.blockchain.verify_committed_chain()
    print("chain integrity verified\n")


def scenario_free_riders() -> None:
    print("=== 2. free-riding peers (20% of the organization) ===")
    net = build_network(n_peers=30, gossip=EnhancedGossipConfig.paper_f4(), seed=2)
    silent = [f"peer-{i}" for i in range(1, 7)]
    # A lazy forwarder that drops all its forwarding work is the paper's
    # silent peer.
    fault = LazyForwarderFault(net.network, silent, 1.0, net.streams)
    net.start()
    drive_blocks(net, count=10)
    net.run_until(
        lambda: all(p.blockchain.max_known_number() >= 9 for p in net.peers.values()),
        step=1.0, max_time=120.0,
    )
    latencies = net.tracker.all_latencies()
    recoveries = sum(p.blocks_received_via["recovery"] for p in net.peers.values())
    print(f"all 10 blocks reached all 30 peers despite {len(silent)} free-riders")
    print(f"forwarding work the free-riders skipped: {fault.dropped} messages")
    print(f"worst dissemination latency: {max(latencies):.3f} s "
          f"({recoveries} recovery fetches)")
    print("note: 20% free-riders in a 30-peer org eat deep into the pe margin;")
    print("the TTL table would prescribe a larger TTL to restore the guarantee\n")


def scenario_teasers() -> None:
    print("=== 3. teasing peers: advertise, then stonewall (20%) ===")
    net = build_network(n_peers=30, gossip=EnhancedGossipConfig.paper_f4(), seed=2)
    teasers = [f"peer-{i}" for i in range(1, 7)]
    fault = TeasingPeerFault(net.network, teasers)
    net.start()
    drive_blocks(net, count=10)
    net.run_until(
        lambda: all(p.blockchain.max_known_number() >= 9 for p in net.peers.values()),
        step=1.0, max_time=300.0,
    )
    latencies = net.tracker.all_latencies()
    recoveries = sum(p.blocks_received_via["recovery"] for p in net.peers.values())
    print(f"all blocks still delivered; requested transfers withheld: {fault.dropped}")
    print(f"worst dissemination latency: {max(latencies):.3f} s "
          f"(retry/recovery fallback; {recoveries} recovery fetches)")
    print("-> the §VII countermeasure: the request-retry ladder rotates a")
    print("   stalled request to a different digest holder (see")
    print("   examples/adversarial_study.py for the hardened configuration)\n")


def scenario_packet_loss() -> None:
    print("=== 4. 5% uniform packet loss ===")
    net = build_network(n_peers=30, gossip=EnhancedGossipConfig.paper_f4(), seed=3)
    fault = LinkDegradeFault(net.network, 0.05, net.streams)  # every link
    net.start()
    drive_blocks(net, count=10)
    net.run_until(
        lambda: all(p.blockchain.max_known_number() >= 9 for p in net.peers.values()),
        step=1.0, max_time=120.0,
    )
    print(f"messages lost: {fault.dropped}")
    recoveries = sum(p.blocks_received_via["recovery"] for p in net.peers.values())
    print(f"all blocks delivered; recovery needed for {recoveries} block receptions\n")


def main() -> None:
    scenario_crash_and_recover()
    scenario_free_riders()
    scenario_teasers()
    scenario_packet_loss()


if __name__ == "__main__":
    main()
