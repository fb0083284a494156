"""Timing and profiling harness for the simulation core.

The canonical scenario is the paper's dissemination workload (enhanced
gossip, fout=4, table-driven TTL, 160 KB blocks every 1.5 s) **plus the
calibrated background metadata traffic** — the idle floor the paper's
Fabric model carries everywhere — at a sweep of organization sizes.
Throughput is reported as **executed events per second of the event-loop
phase only**; network construction (identities, views) is excluded so the
number tracks the engine/net/gossip hot path rather than setup cost.

Each point is measured twice over:

* the **batched** engine (timer wheel + aggregated background, the
  default) provides the events/sec figure, repeated and best-of-N;
* one **naive** run (one heap event per timer firing, per-copy background
  sends) of the *same scenario* provides the reference event count, so the
  point also reports the deterministic total-event-count reduction that
  the batching delivers.

``run_core_benchmark`` emits both; ``write_bench_json`` produces the
committed ``BENCH_core.json`` that ``scripts/perf_gate.py`` gates against
(events/sec within threshold, reduction above the floor).
"""

from __future__ import annotations

import cProfile
import gc
import io
import json
import pstats
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.analysis.pe import ttl_for_target
from repro.experiments.builders import build_network
from repro.experiments.workloads import synthetic_block_transactions
from repro.fabric.config import PeerConfig, ValidationMode
from repro.gossip.config import BackgroundTrafficConfig, EnhancedGossipConfig

BENCH_SIZES = (50, 100, 250, 500, 1000)
BENCH_BLOCKS = 6
BENCH_FOUT = 4
BENCH_PE_TARGET = 1e-6
BENCH_BLOCK_PERIOD = 1.5
BENCH_SEED = 1

# Crash-fault recovery scenario: the same dissemination workload with a
# fraction of the peers crashing mid-run and recovering later, so the
# catch-up traffic (state-info fanouts, RecoveryRequest/Response batches)
# exercises the multicast fast path under fault machinery. The event
# loop keeps running long after the workload while recovery rounds drain,
# which is exactly the regime the paper's §III-A reserves recovery for.
RECOVERY_BENCH_PEERS = 100
RECOVERY_BENCH_BLOCKS = 8
RECOVERY_CRASH_COUNT = 10
RECOVERY_CRASH_AT = 2.0
RECOVERY_RECOVER_AT = 6.0

# Campaign-throughput benchmark: the registered ``sweep-bench`` scenario
# (canonical 100-peer dissemination run) fanned over a seed matrix by the
# SweepRunner, measured once sequentially and once with worker processes.
# Complements events/sec: single-run speed times campaign parallelism.
SWEEP_BENCH_SCENARIO = "sweep-bench"
SWEEP_BENCH_SEEDS = 8
SWEEP_BENCH_JOBS = 4

# Shard-scaling benchmark: the canonical scenario at the 10k-peer regime,
# run single-process and process-sharded (repro.scenarios.sharded). The
# workload is short (2 blocks) because the point of the row is the events/
# sec trajectory over shard counts, not the horizon; the merged snapshots
# are asserted identical across shard counts on every measurement, so the
# row doubles as a large-scale determinism check. Wall time includes each
# worker's full deterministic build (replicated state, partitioned
# execution), which is the documented memory/setup cost of the design.
SHARD_BENCH_PEERS = 10_000
SHARD_BENCH_BLOCKS = 2
SHARD_BENCH_COUNTS = (1, 2, 4)

# Congestion benchmark: the registered ``congested-uplink`` deployment
# (finite sender uplinks, bounded queue, CoDel AQM) driven once with the
# enhanced digest-based gossip and once with the original push-full-blocks
# gossip, at a small and a large block size. The interesting signal is the
# divergence at large blocks: full-block pushing serializes every copy
# through the bottleneck and queues/drops, digests keep the fanout cheap.
# Deterministic physics (queue delay, drops, latency), never wall-clock —
# recorded in BENCH_core.json for the trajectory, not gated.
CONGESTION_BENCH_SCENARIO = "congested-uplink"
CONGESTION_BENCH_TX_SIZES = (800, 4_800)


def _shard_bench_gossip() -> EnhancedGossipConfig:
    """Module-level factory so the shard-bench spec stays picklable."""
    ttl = ttl_for_target(SHARD_BENCH_PEERS, BENCH_FOUT, BENCH_PE_TARGET)
    return EnhancedGossipConfig(fout=BENCH_FOUT, ttl=ttl, ttl_direct=2)


@dataclass
class CoreBenchResult:
    """One measured point of the core benchmark."""

    n_peers: int
    ttl: int
    blocks: int
    seed: int
    events: int
    wall_time_s: float
    events_per_sec: float
    peak_heap_size: int
    final_sim_time: float
    # Event count of the naive (unbatched) engine on the same scenario and
    # the resulting reduction; both deterministic. None when the naive
    # reference run was skipped.
    naive_events: Optional[int] = None
    event_reduction: Optional[float] = None
    # "dissemination" (the canonical run) or "recovery" (crash-fault
    # catch-up); recovery points live in their own BENCH_core.json section.
    scenario: str = "dissemination"


def _run_scenario(n_peers: int, blocks: int, seed: int, batched: bool = True):
    """Build and drive the canonical dissemination scenario.

    ``batched=False`` runs the identical workload on the naive engine:
    timer wheel off, background traffic sent per copy.

    Returns ``(net, ttl, run_wall_seconds)`` where the wall time covers
    only the event-loop phase. That phase runs with the cyclic garbage
    collector paused (setup garbage collected before the clock starts,
    collector re-enabled after): the engine's entry/record pools keep the
    event loop's allocation rate low enough that generation-0 sweeps are
    almost pure overhead, and pausing them removes their scheduling noise
    from the measurement. Both the batched and the naive reference run
    use the same policy, so reduction ratios are unaffected.
    """
    ttl = ttl_for_target(n_peers, BENCH_FOUT, BENCH_PE_TARGET)
    net = build_network(
        n_peers=n_peers,
        gossip=EnhancedGossipConfig(fout=BENCH_FOUT, ttl=ttl, ttl_direct=2),
        seed=seed,
        peer_config=PeerConfig(
            per_tx_validation_time=0.004,
            validation_mode=ValidationMode.DELAY_ONLY,
        ),
        background=BackgroundTrafficConfig(aggregate=batched),
        timer_wheel=batched,
    )
    net.start()
    transactions = synthetic_block_transactions(50, 3_200)
    for index in range(blocks):
        net.sim.schedule_at(
            (index + 1) * BENCH_BLOCK_PERIOD, net.orderer.emit_block, transactions
        )
    workload_end = blocks * BENCH_BLOCK_PERIOD
    wall = _timed_run(
        net,
        lambda: net.sim.now >= workload_end and net.all_peers_received(blocks),
        workload_end + 60.0,
    )
    return net, ttl, wall


def _timed_run(net, predicate, max_time: float) -> float:
    """Drive the event loop to ``predicate`` with GC paused; return wall
    seconds (see :func:`_run_scenario` for why GC is paused)."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        net.run_until(predicate, step=1.0, max_time=max_time)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_recovery_scenario(
    n_peers: int = RECOVERY_BENCH_PEERS,
    blocks: int = RECOVERY_BENCH_BLOCKS,
    seed: int = BENCH_SEED,
    batched: bool = True,
):
    """Crash-fault recovery flavour of the canonical scenario.

    The first :data:`RECOVERY_CRASH_COUNT` regular peers (sorted by name —
    deterministic) crash at :data:`RECOVERY_CRASH_AT` and recover at
    :data:`RECOVERY_RECOVER_AT`; the run then continues until every peer,
    including the recovered ones, holds every block — which requires the
    state-info gossip to spread heights and the recovery component to
    fetch the missed batches.
    """
    ttl = ttl_for_target(n_peers, BENCH_FOUT, BENCH_PE_TARGET)
    net = build_network(
        n_peers=n_peers,
        gossip=EnhancedGossipConfig(fout=BENCH_FOUT, ttl=ttl, ttl_direct=2),
        seed=seed,
        peer_config=PeerConfig(
            per_tx_validation_time=0.004,
            validation_mode=ValidationMode.DELAY_ONLY,
        ),
        background=BackgroundTrafficConfig(aggregate=batched),
        timer_wheel=batched,
    )
    net.start()
    for name in net.regular_peers()[:RECOVERY_CRASH_COUNT]:
        peer = net.peers[name]
        net.sim.schedule_at(RECOVERY_CRASH_AT, peer.crash)
        net.sim.schedule_at(RECOVERY_RECOVER_AT, peer.recover)
    transactions = synthetic_block_transactions(50, 3_200)
    for index in range(blocks):
        net.sim.schedule_at(
            (index + 1) * BENCH_BLOCK_PERIOD, net.orderer.emit_block, transactions
        )
    workload_end = blocks * BENCH_BLOCK_PERIOD
    wall = _timed_run(
        net,
        lambda: net.sim.now >= workload_end and net.all_peers_received(blocks),
        workload_end + 120.0,
    )
    return net, ttl, wall


def run_recovery_benchmark(
    blocks: int = RECOVERY_BENCH_BLOCKS,
    seed: int = BENCH_SEED,
    repeats: int = 3,
    measure_reduction: bool = True,
) -> CoreBenchResult:
    """Measure the crash-fault recovery scenario (single point)."""
    naive_events: Optional[int] = None
    if measure_reduction:
        naive_net, _, _ = _run_recovery_scenario(blocks=blocks, seed=seed, batched=False)
        naive_events = naive_net.sim.events_executed
    best: Optional[CoreBenchResult] = None
    for _ in range(max(1, repeats)):
        net, ttl, wall = _run_recovery_scenario(blocks=blocks, seed=seed)
        events = net.sim.events_executed
        candidate = CoreBenchResult(
            n_peers=RECOVERY_BENCH_PEERS,
            ttl=ttl,
            blocks=blocks,
            seed=seed,
            events=events,
            wall_time_s=wall,
            events_per_sec=events / wall if wall > 0 else float("inf"),
            peak_heap_size=net.sim.peak_heap_size,
            final_sim_time=net.sim.now,
            naive_events=naive_events,
            event_reduction=(1.0 - events / naive_events if naive_events else None),
            scenario="recovery",
        )
        if best is None or candidate.events_per_sec > best.events_per_sec:
            best = candidate
    assert best is not None
    return best


@dataclass
class SweepBenchResult:
    """Campaign throughput of the SweepRunner on the sweep-bench scenario."""

    scenario: str
    seeds: int
    jobs: int
    wall_jobs1_s: float
    wall_jobsN_s: float
    runs_per_sec_jobs1: float
    runs_per_sec_jobsN: float
    parallel_speedup: float


def run_sweep_benchmark(
    scenario: str = SWEEP_BENCH_SCENARIO,
    seeds: int = SWEEP_BENCH_SEEDS,
    jobs: int = SWEEP_BENCH_JOBS,
    repeats: int = 2,
) -> SweepBenchResult:
    """Measure sweep wall time at jobs=1 vs jobs=N (best of ``repeats``).

    The merged reports are asserted byte-identical across the two worker
    counts on every repeat — the benchmark doubles as a determinism check
    of the parallel merge.
    """
    from repro.scenarios.sweep import SweepRunner  # above the perf layer

    seed_list = list(range(1, seeds + 1))
    best_sequential: Optional[float] = None
    best_parallel: Optional[float] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        sequential = SweepRunner(jobs=1).run(scenario, seeds=seed_list)
        wall_sequential = time.perf_counter() - start
        start = time.perf_counter()
        parallel = SweepRunner(jobs=jobs).run(scenario, seeds=seed_list)
        wall_parallel = time.perf_counter() - start
        if sequential.to_json() != parallel.to_json():
            raise AssertionError(
                f"sweep merge diverged between jobs=1 and jobs={jobs}"
            )
        if best_sequential is None or wall_sequential < best_sequential:
            best_sequential = wall_sequential
        if best_parallel is None or wall_parallel < best_parallel:
            best_parallel = wall_parallel
    assert best_sequential is not None and best_parallel is not None
    return SweepBenchResult(
        scenario=scenario,
        seeds=seeds,
        jobs=jobs,
        wall_jobs1_s=best_sequential,
        wall_jobsN_s=best_parallel,
        runs_per_sec_jobs1=seeds / best_sequential,
        runs_per_sec_jobsN=seeds / best_parallel,
        parallel_speedup=best_sequential / best_parallel,
    )


@dataclass
class ShardScalingResult:
    """Events/sec of one scenario across shard-worker counts."""

    scenario: str
    n_peers: int
    blocks: int
    seed: int
    points: List[dict]  # per shard count: shards, events, wall_time_s, events_per_sec
    note: str = (
        "wall time is end-to-end and includes each worker's full deterministic "
        "build (replicated state, partitioned execution); on a single-core "
        "machine the sharded rows therefore record coordination overhead, not "
        "speedup — informational, never gated. The merged snapshots are "
        "asserted bit-identical across shard counts on every measurement."
    )

    @property
    def snapshots_identical(self) -> bool:
        return all(point["snapshot_identical"] for point in self.points)


def run_shard_scaling_benchmark(
    n_peers: int = SHARD_BENCH_PEERS,
    blocks: int = SHARD_BENCH_BLOCKS,
    seed: int = BENCH_SEED,
    shard_counts: Sequence[int] = SHARD_BENCH_COUNTS,
) -> ShardScalingResult:
    """Measure the canonical scenario at ``n_peers`` across shard counts.

    Every point's merged snapshot is compared against the first measured
    point's (all metrics except the engine-internal ``events_executed``);
    a mismatch raises — the benchmark is also the 10k-regime determinism
    check. Events/sec uses the first point's event count as the common
    numerator so the ratio between rows is a pure wall-clock statement.
    """
    from repro.scenarios.sharded import run_scenario_sharded
    from repro.scenarios.spec import ScenarioSpec, WorkloadSpec

    spec = ScenarioSpec(
        name=f"shard-bench-{n_peers}",
        description="shard-scaling benchmark point (not registered)",
        gossip=_shard_bench_gossip,
        n_peers=n_peers,
        background=True,
        workload=WorkloadSpec(blocks=blocks, idle_tail=0.0),
    )
    reference: Optional[dict] = None
    reference_events: Optional[int] = None
    points: List[dict] = []
    for shards in shard_counts:
        start = time.perf_counter()
        run = run_scenario_sharded(spec, seed=seed, shards=shards)
        wall = time.perf_counter() - start
        snapshot = run.snapshot()
        current = {
            key: value for key, value in snapshot.items() if key != "events_executed"
        }
        if reference is None:
            # First measured point (whatever its shard count) anchors the
            # cross-count identity check and the common event numerator.
            reference = current
            reference_events = snapshot["events_executed"]
        identical = current == reference
        if not identical:
            diverged = sorted(
                key for key in current if current[key] != (reference or {}).get(key)
            )
            raise AssertionError(
                f"shard-scaling benchmark diverged at shards={shards}: {diverged}"
            )
        events = reference_events or snapshot["events_executed"]
        points.append(
            {
                "shards": shards,
                "effective_shards": run.plan.shards,
                "events": events,
                "wall_time_s": wall,
                "events_per_sec": events / wall if wall > 0 else float("inf"),
                "snapshot_identical": identical,
            }
        )
    return ShardScalingResult(
        scenario="dissemination+background",
        n_peers=n_peers,
        blocks=blocks,
        seed=seed,
        points=points,
    )


def run_congestion_benchmark(
    seed: int = BENCH_SEED,
    tx_sizes: Sequence[int] = CONGESTION_BENCH_TX_SIZES,
) -> dict:
    """Queueing-delay signal on the ``congested-uplink`` deployment.

    Drives the registered congestion scenario with the enhanced
    (digest-based, pull-for-payload) gossip and with the original
    (push-full-blocks) gossip at each block size. Every number is
    deterministic link physics — queue residency, tail/CoDel drops,
    dissemination latency — so the rows replay bit-for-bit; the committed
    section documents how the push/pull divergence opens as blocks grow.
    """
    import dataclasses

    from repro.gossip.config import OriginalGossipConfig
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import run_scenario

    base = get_scenario(CONGESTION_BENCH_SCENARIO)
    rows: List[dict] = []
    for gossip_name, gossip in (
        ("enhanced-f4 (digests, pull payload)", base.gossip),
        ("original (push full blocks)", OriginalGossipConfig),
    ):
        for tx_size in tx_sizes:
            spec = base.with_overrides(
                gossip=gossip,
                workload=dataclasses.replace(base.workload, tx_size=tx_size),
            )
            snapshot = run_scenario(spec, seed=seed).snapshot()
            link = snapshot["link"]
            rows.append(
                {
                    "gossip": gossip_name,
                    "tx_size_bytes": tx_size,
                    "block_bytes": tx_size * base.workload.tx_per_block,
                    "packets": link["packets"],
                    "dropped_tail": link["dropped_tail"],
                    "dropped_codel": link["dropped_codel"],
                    "queue_delay_total_s": link["queue_delay_total"],
                    "queue_delay_max_s": link["queue_delay_max"],
                    "latency_p50_s": snapshot["latency_p50"],
                    "latency_p95_s": snapshot["latency_p95"],
                    "dropped_messages": snapshot["dropped_messages"],
                }
            )
    return {
        "scenario": CONGESTION_BENCH_SCENARIO,
        "seed": seed,
        "note": "deterministic link physics (bit-for-bit replayable), not "
                "wall-clock; the push/pull latency and queue-delay gap at "
                "the large block size is the paper's motivation for "
                "digest-based dissemination under constrained uplinks",
        "rows": rows,
    }


def run_core_benchmark(
    sizes: Sequence[int] = BENCH_SIZES,
    blocks: int = BENCH_BLOCKS,
    seed: int = BENCH_SEED,
    repeats: int = 3,
    measure_reduction: bool = True,
) -> List[CoreBenchResult]:
    """Measure events/sec and the event-count reduction at each size.

    Each point runs the batched engine ``repeats`` times and keeps the
    fastest run (results are identical across repeats by the determinism
    contract, only the wall clock varies), plus one naive run for the
    reference event count (its wall time is irrelevant).
    """
    results: List[CoreBenchResult] = []
    for n_peers in sizes:
        naive_events: Optional[int] = None
        if measure_reduction:
            naive_net, _, _ = _run_scenario(n_peers, blocks, seed, batched=False)
            naive_events = naive_net.sim.events_executed
        best: Optional[CoreBenchResult] = None
        for _ in range(max(1, repeats)):
            net, ttl, wall = _run_scenario(n_peers, blocks, seed)
            events = net.sim.events_executed
            candidate = CoreBenchResult(
                n_peers=n_peers,
                ttl=ttl,
                blocks=blocks,
                seed=seed,
                events=events,
                wall_time_s=wall,
                events_per_sec=events / wall if wall > 0 else float("inf"),
                peak_heap_size=net.sim.peak_heap_size,
                final_sim_time=net.sim.now,
                naive_events=naive_events,
                event_reduction=(
                    1.0 - events / naive_events if naive_events else None
                ),
            )
            if best is None or candidate.events_per_sec > best.events_per_sec:
                best = candidate
        assert best is not None
        results.append(best)
    return results


def write_bench_json(
    results: Sequence[CoreBenchResult],
    path: str,
    baseline_events_per_sec: Optional[dict] = None,
    recovery_results: Optional[Sequence[CoreBenchResult]] = None,
    sweep_result: Optional[SweepBenchResult] = None,
    shard_scaling: Optional[dict] = None,
    congestion: Optional[dict] = None,
) -> dict:
    """Write ``BENCH_core.json`` and return the payload.

    Args:
        results: measured dissemination points.
        path: output file.
        baseline_events_per_sec: optional ``{n_peers: events_per_sec}`` of
            the pre-refactor engine, recorded alongside for the speedup
            trajectory in the ROADMAP.
        recovery_results: optional crash-fault recovery points, committed
            under their own section so the gate tracks both scenarios.
        sweep_result: optional SweepRunner campaign-throughput point
            (informational — wall-clock parallel speedup is machine-
            dependent, so it is recorded but not gated).
        shard_scaling: optional shard-scaling section (a
            :class:`ShardScalingResult` as a dict, or a prior baseline's
            section carried forward) — the 10k-peer point and the
            shards=1/2/4 events/sec row. Informational, never gated:
            parallel speedup is machine-dependent (a single-core container
            records coordination overhead instead of speedup).
        congestion: optional congestion section
            (:func:`run_congestion_benchmark`) — deterministic
            queueing-delay rows on the ``congested-uplink`` scenario.
            Informational, never gated.
    """
    payload = {
        "benchmark": "core_engine",
        "scenario": {
            "gossip": "enhanced",
            "fout": BENCH_FOUT,
            "pe_target": BENCH_PE_TARGET,
            "blocks": BENCH_BLOCKS,
            "block_period_s": BENCH_BLOCK_PERIOD,
            "tx_per_block": 50,
            "tx_size_bytes": 3_200,
            "background_traffic": "default (aggregated; naive reference per-copy)",
            "seed": BENCH_SEED,
            "timing": "event-loop phase only (setup excluded; GC paused "
                      "during the timed phase)",
        },
        "results": [asdict(result) for result in results],
    }
    if recovery_results:
        payload["recovery_scenario"] = {
            "n_peers": RECOVERY_BENCH_PEERS,
            "blocks": RECOVERY_BENCH_BLOCKS,
            "crash_count": RECOVERY_CRASH_COUNT,
            "crash_at_s": RECOVERY_CRASH_AT,
            "recover_at_s": RECOVERY_RECOVER_AT,
        }
        payload["recovery_results"] = [asdict(result) for result in recovery_results]
    if sweep_result is not None:
        payload["sweep_scenario"] = {
            "runner": "SweepRunner (multiprocessing, fork preferred)",
            "note": "merged reports are byte-identical across worker counts "
                    "(asserted per repeat); the wall-clock parallel speedup "
                    "is machine-dependent — a single-core container shows "
                    "pool overhead instead of speedup — so this section is "
                    "recorded for the trajectory, never gated",
        }
        payload["sweep_results"] = [asdict(sweep_result)]
    if shard_scaling is not None:
        payload["shard_scaling"] = shard_scaling
    if congestion is not None:
        payload["congestion"] = congestion
    if baseline_events_per_sec is not None:
        payload["baseline_events_per_sec"] = {
            str(n): eps for n, eps in baseline_events_per_sec.items()
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def profile_core(
    n_peers: int = 100, blocks: int = BENCH_BLOCKS, seed: int = BENCH_SEED, top: int = 25
) -> str:
    """cProfile the canonical scenario; returns the formatted top functions.

    Intended for interactive optimization sessions::

        PYTHONPATH=src python -c "from repro.perf import profile_core; print(profile_core())"
    """
    profiler = cProfile.Profile()
    profiler.enable()
    _run_scenario(n_peers, blocks, seed)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer).sort_stats("tottime")
    stats.print_stats(top)
    return buffer.getvalue()
