"""One repetition of one workload, in this process.

``python -m bench.rep`` is what ``bench/run.py`` spawns: a fresh
interpreter per repetition, because garbage from a previous 3000-peer
network doubles the time of the next run in the same process. It prints one
JSON object describing the repetition; ``run.py`` aggregates them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from typing import Callable, Dict

from bench.hostspeed import SpeedMeter
from bench.tracing import (
    BUILD,
    LOOP,
    REPORT,
    SETUP_PHASES,
    START,
    Patches,
    PhaseClock,
    Sampler,
    SendCounters,
)

# Snapshot keys that are not physics: which engine ran, and how many heap
# events it took (batching and sharding legitimately change the count).
NOT_PHYSICS = ("runtime", "events_executed")
PHYSICS_STATS = ("latency_p50", "latency_p95", "total_bytes", "invalidated")


def physics_digest(snapshot: dict) -> str:
    """sha256 of the snapshot's deterministic physics, floats bit-exact."""
    physics = {key: value for key, value in snapshot.items() if key not in NOT_PHYSICS}
    return hashlib.sha256(json.dumps(physics, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest process of this repetition: this one or a shard worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(
    clock: PhaseClock, meter: SpeedMeter, sampler: Sampler, counters: SendCounters, outcome
) -> Dict[str, float]:
    """Every per-layer metric one traced process can know by itself; host
    times in reference seconds, like the end-to-end ones."""
    spans = clock.spans(meter.reference_seconds)
    raw = clock.spans(lambda start, end: end - start)
    # Seconds summed inside the loop by other clocks, brought to the same unit.
    loop_scale = spans["loop"] / raw["loop"] if raw["loop"] else 1.0
    metrics = {
        "experiments.import_s": spans["import"],
        "experiments.build_s": spans["build"],
        "experiments.start_s": spans["start"],
        "experiments.loop_s": spans["loop"],
        "metrics.report_s": spans["report"],
    }
    setup_span = spans["import"] + spans["build"] + spans["start"]
    for suffix, phases, span in (
        ("setup_self_s", SETUP_PHASES, setup_span),
        ("loop_self_s", (LOOP,), spans["loop"]),
    ):
        for layer, seconds in sampler.self_seconds(phases, span).items():
            metrics[f"{layer}.{suffix}"] = seconds
    samples, unmapped = sampler.totals()
    metrics["trace.samples"] = samples
    metrics["trace.unmapped_frac"] = unmapped / samples if samples else 0.0
    metrics["trace.host_slowdown"] = sum(raw.values()) / sum(spans.values())

    snapshot = outcome.snapshot
    link = snapshot.get("link", {})
    resilience = snapshot.get("resilience", {})
    hardening = resilience.get("counters", {})
    delivered = outcome.attempted - outcome.failed
    metrics.update({
        "simulation.engine.events": snapshot["events_executed"],
        "simulation.engine.peak_heap": max(
            (network.sim.peak_heap_size for network in counters.networks), default=0
        ),
        "simulation.monitor.messages": snapshot["total_messages"],
        "simulation.monitor.bytes": snapshot["total_bytes"],
        "net.dropped": snapshot["dropped_messages"],
        "net.link.packets": link.get("packets", 0),
        "net.link.dropped_tail": link.get("dropped_tail", 0),
        "net.link.dropped_codel": link.get("dropped_codel", 0),
        "net.link.queue_delay_s": link.get("queue_delay_total", 0.0),
        "gossip.first_receptions": delivered,
        "gossip.payload_msgs": counters.block_copies,
        "gossip.payload_efficiency": (
            delivered / counters.block_copies if counters.block_copies else 0.0
        ),
        "gossip.requests_retried": hardening.get("requests_retried", 0),
        "gossip.request_timeouts": hardening.get("request_timeouts", 0),
        "gossip.blocks_via_recovery": snapshot.get("blocks_via_recovery", 0),
        "ledger.tx_ordered": snapshot.get("tx_ordered", 0),
        "ledger.tx_invalidated": snapshot.get("invalidated", 0),
        "faults.dropped": resilience.get("faults_dropped", 0),
    })
    for path in counters.calls:
        metrics[f"net.{path}.calls"] = counters.calls[path]
        metrics[f"net.{path}.incl_s"] = counters.seconds[path] * loop_scale
    metrics["net.multicast.copies"] = counters.copies["multicast"]
    metrics["net.aggregate.copies"] = counters.copies["aggregate"]
    health = outcome.health
    metrics["simulation.sharded.window_rounds"] = health.window_rounds if health else 0
    metrics["simulation.sharded.window_wall_s"] = (
        health.window_wall_total * loop_scale if health else 0.0
    )
    return metrics


def run_rep(
    load_workload: Callable[[], object],
    variant: str,
    seed: int,
    origin: float,
    trace: bool,
) -> dict:
    """Run one repetition and describe it.

    ``load_workload`` imports and returns the ``Workload`` (the import is
    part of what a user waits for, so it happens on the clock);
    ``variant`` names which of its runners to use. A repetition that
    raises is reported with every nominal delivery failed, not re-raised.
    """
    clock = PhaseClock(origin)
    meter = SpeedMeter()
    meter.start()
    patches = Patches()
    sampler = counters = None
    if trace:
        sampler = Sampler(clock)
        sampler.start()
    rep = {"variant": variant, "seed": seed, "trace": trace}
    workload = outcome = None
    try:
        try:
            workload = load_workload()
            from repro.experiments import FabricNetwork
            from repro.net import Network
            from repro.simulation import Simulator

            if trace:
                counters = SendCounters()
                counters.install(patches, Network)
                clock.mark(patches, Network, "__init__", BUILD)
                clock.mark(patches, FabricNetwork, "start", START)
            clock.mark(patches, Simulator, "run", LOOP)
            clock.mark(patches, Simulator, "run_window", LOOP)
            rep["sharded"] = workload.oracle is not None
            runner = workload.runner(variant)
            clock.mark_prepared()
            result = runner.run(seed)
            clock.enter(REPORT)
            outcome = runner.report(result)
        finally:
            clock.finish()
            meter.stop()
            if sampler is not None:
                sampler.stop()
            patches.undo()
    except Exception as error:  # boundary: a failed rep is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        nominal = workload.deliveries if workload is not None else 1
        rep.update(
            attempted=nominal,
            failed=nominal,
            problems=[f"{type(error).__name__}: {error}"],
        )
        return rep

    # Host times are reported as the seconds they would have taken on the
    # quiet reference host (see bench.hostspeed); the raw readings ride along.
    raw_wall = clock.ended - origin
    raw_setup = clock.setup_seconds()
    wall = meter.reference_seconds(origin, clock.ended)
    setup = meter.reference_seconds(origin, origin + raw_setup)
    snapshot = outcome.snapshot
    rep.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=list(outcome.problems),
        wall_s=wall,
        setup_s=setup,
        msgs_per_s=snapshot["total_messages"] / (wall - setup),
        raw_wall_s=raw_wall,
        raw_setup_s=raw_setup,
        host_slowdown=raw_wall / wall,
        peak_rss_mb=peak_rss_mb(),
        events=snapshot["events_executed"],
        digest=physics_digest(snapshot),
        physics={key: snapshot[key] for key in PHYSICS_STATS if key in snapshot},
    )
    if trace:
        rep["layers"] = layer_metrics(clock, meter, sampler, counters, outcome)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--registry", default="bench.workloads")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", default="measured",
                        choices=("measured", "oracle", "parallel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--origin", type=float, default=None,
                        help="parent's perf_counter() at spawn")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    origin = args.origin if args.origin is not None else time.perf_counter()

    def load_workload():
        return importlib.import_module(args.registry).WORKLOADS[args.workload]

    rep = run_rep(load_workload, args.variant, args.seed, origin, bool(args.trace))
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
