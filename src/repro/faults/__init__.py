"""Fault injection: crashes, partitions, degraded links, adversaries, churn.

The paper keeps adversarial peers for future work (§VII) but relies on the
recovery component for crash/outage resilience (§III-A). This package
exercises both — and goes beyond: scheduled crash/recover of peers
(recovery catch-up), network partitions and lossy WAN links, a byzantine
arsenal (silent, lazy, teasing, digest-lying peers, eclipse coalitions,
asymmetric flaky links — see :mod:`repro.faults.adversaries` and
docs/faults.md), and runtime membership churn (flash-crowd joins, mass
departures — :mod:`repro.faults.churn`). The scenario subsystem's
declarative fault events compile onto all of these
(:mod:`repro.faults.schedule`). One module points the other way:
:mod:`repro.faults.chaos` breaks the *execution runtime* (shard workers,
sweep cells) rather than the simulated system, to test the supervision
layer itself.
"""

from repro.faults.adversaries import DigestLiarFault, EclipseFault, LazyForwarderFault
from repro.faults.chaos import (
    ChaosInjected,
    ShardChaos,
    SweepChaos,
    parse_shard_chaos,
)
from repro.faults.churn import ChurnController
from repro.faults.injectors import (
    CrashSchedule,
    LinkDegradeFault,
    PartitionFault,
    TeasingPeerFault,
)
from repro.faults.schedule import (
    AdversaryEvent,
    CrashEvent,
    DegradeEvent,
    EclipseEvent,
    FaultEvent,
    FaultSchedule,
    FlakyLinkEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    compile_fault_schedule,
)

__all__ = [
    "AdversaryEvent",
    "ChaosInjected",
    "ChurnController",
    "CrashEvent",
    "CrashSchedule",
    "DegradeEvent",
    "DigestLiarFault",
    "EclipseEvent",
    "EclipseFault",
    "FaultEvent",
    "FaultSchedule",
    "FlakyLinkEvent",
    "JoinEvent",
    "LazyForwarderFault",
    "LeaveEvent",
    "LinkDegradeFault",
    "PartitionEvent",
    "PartitionFault",
    "ShardChaos",
    "SweepChaos",
    "TeasingPeerFault",
    "compile_fault_schedule",
    "parse_shard_chaos",
]
