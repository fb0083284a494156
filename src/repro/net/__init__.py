"""Simulated network substrate.

Models the 1 Gbps LAN of the paper's testbed: typed messages with explicit
wire sizes (:mod:`repro.net.message`), latency models and the declarative
:class:`~repro.net.latency.LatencySpec` that names one of their four kinds
(:mod:`repro.net.latency`), per-node full-duplex NIC serialization and delivery
(:mod:`repro.net.network`), optional bottleneck-link bandwidth/queueing
physics (:mod:`repro.net.link`) and traffic accounting for the bandwidth
figures (:class:`TrafficMonitor`, defined in the engine core's
:mod:`repro.simulation._core.monitor`).
"""

from repro.net.latency import (
    ConstantLatency,
    LanLatency,
    LatencyModel,
    LatencySpec,
    MeasuredLatency,
    TopologyLatency,
)
from repro.net.link import CoDelConfig, LinkModel
from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.simulation._core.monitor import TrafficMonitor, TrafficTotals

__all__ = [
    "CoDelConfig",
    "ConstantLatency",
    "LanLatency",
    "LatencyModel",
    "LatencySpec",
    "LinkModel",
    "MeasuredLatency",
    "Message",
    "Network",
    "NetworkConfig",
    "TopologyLatency",
    "TrafficMonitor",
    "TrafficTotals",
]
