#!/usr/bin/env python3
"""Adversarial study: the byzantine arsenal, churn and retry hardening.

The paper's §VII leaves byzantine countermeasures to future work; this
study runs the repo's adversarial scenario suite end to end and reads
the resilience report each run exports:

1. ``byzantine-teasers`` — 250 peers, 20% advertise-then-stonewall: the
   request-retry ladder rotates every stalled request to a different
   digest holder, so the run converges with **zero** recovery rescues;
2. ``digest-liars`` — peers re-advertising digests for blocks they never
   serve poison the holder sets the ladder retries against;
3. ``eclipse-attempt`` — a teasing coalition monopolizes one victim's
   connectivity until the eclipse is released;
4. ``flash-crowd`` / ``mass-departure`` — runtime membership churn: late
   joiners catch up through recovery, leavers drop out of every view and
   the completion predicate.

Every scenario here replays bit-for-bit at any shard count — the study
proves it on the first scenario by re-running it across 4 inline shard
workers (docs/faults.md has the per-injector RNG contract).

Usage::

    python examples/adversarial_study.py
"""

from repro.scenarios import run_scenario, run_scenario_sharded


def describe(run) -> None:
    snapshot = run.snapshot()
    resilience = snapshot["resilience"]
    counters = resilience["counters"]
    print(f"  converged at t={snapshot['final_time']:.1f} s; "
          f"faults dropped {resilience['faults_dropped']} messages")
    print(f"  requests: {counters['requests_sent']} sent, "
          f"{counters['requests_retried']} retried, "
          f"{counters['requests_abandoned']} abandoned")
    print(f"  stalls rescued by retry: {counters['stalls_rescued_by_retry']}  |  "
          f"blocks via recovery: {snapshot['blocks_via_recovery']}")
    if resilience["peers_joined"] or resilience["peers_departed"]:
        print(f"  membership: +{resilience['peers_joined']} joined, "
              f"-{resilience['peers_departed']} departed")
    full = resilience["infection"].get("1")
    if full and "max" in full:
        print(f"  100% infection: p50 {full['p50']:.3f} s, "
              f"max {full['max']:.3f} s over {full['blocks_reached']} blocks")
    print()


def study_teasers() -> None:
    print("=== 1. byzantine-teasers: 20% of 250 peers advertise, never serve ===")
    run = run_scenario("byzantine-teasers", seed=1)
    describe(run)
    assert run.snapshot()["blocks_via_recovery"] == 0, "retries should beat recovery"
    counters = run.snapshot()["resilience"]["counters"]
    assert counters["stalls_rescued_by_retry"] > 0


def study_liars() -> None:
    print("=== 2. digest-liars: adverts for blocks the sender never serves ===")
    run = run_scenario("digest-liars", seed=1)
    print(f"  lies told (re-advertised digests): {run.faults.drops[0].lies_told}")
    describe(run)


def study_eclipse() -> None:
    print("=== 3. eclipse-attempt: 3 attackers monopolize peer-16 until t=6 s ===")
    run = run_scenario("eclipse-attempt", seed=1)
    eclipse = run.faults.drops[1]  # event order: the teasers, then the eclipse
    print(f"  messages the eclipse cut off: {eclipse.dropped}")
    describe(run)


def study_churn() -> None:
    print("=== 4. flash-crowd and mass-departure: runtime membership churn ===")
    for name in ("flash-crowd", "mass-departure"):
        print(f"-- {name} --")
        describe(run_scenario(name, seed=1))


def study_shard_determinism() -> None:
    print("=== 5. the whole arsenal shards: 1 process vs 4 shard workers ===")
    single = run_scenario("byzantine-teasers", seed=1).snapshot()
    sharded = run_scenario_sharded(
        "byzantine-teasers", seed=1, shards=4, mode="inline"
    ).snapshot()
    mismatched = [
        key for key in single
        if key != "events_executed" and single[key] != sharded[key]
    ]
    assert not mismatched, mismatched
    print("  snapshots identical (events_executed excluded, as documented)\n")


def main() -> None:
    study_teasers()
    study_liars()
    study_eclipse()
    study_churn()
    study_shard_determinism()


if __name__ == "__main__":
    main()
