"""Bandwidth reporting on top of the traffic monitor.

The paper's bandwidth figures (6/9/10/11/14) plot, for the leader peer and
for a regular peer, network utilization in MB/s aggregated over 10-second
intervals, with dotted lines for the averages. :class:`BandwidthReport`
extracts those series and averages from a run's
:class:`~repro.simulation._core.monitor.TrafficMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.simulation._core.monitor import TrafficMonitor

MB = 1_000_000.0


def aggregate_series(values: Sequence[float], factor: int) -> List[float]:
    """Re-bin a series by averaging ``factor`` consecutive bins.

    Matches the paper's readability aggregation: with 1-second monitor bins
    and ``factor=10``, each output point is the mean rate over 10 seconds.
    A trailing partial window is averaged over its actual length.
    """
    if factor < 1:
        raise ValueError(f"aggregation factor must be >= 1, got {factor}")
    return [
        sum(values[start : start + factor]) / len(values[start : start + factor])
        for start in range(0, len(values), factor)
    ]


@dataclass
class PeerBandwidth:
    """One peer's utilization series and average."""

    peer: str
    series_mb_per_s: List[float]
    average_mb_per_s: float
    interval: float


class BandwidthReport:
    """Extracts the paper's bandwidth views from a traffic monitor."""

    def __init__(
        self,
        monitor: TrafficMonitor,
        end_time: Optional[float] = None,
        aggregation_interval: float = 10.0,
    ) -> None:
        self.monitor = monitor
        self.end_time = monitor.last_time if end_time is None else end_time
        if aggregation_interval < monitor.bin_width:
            raise ValueError("aggregation interval below monitor resolution")
        self.aggregation_interval = aggregation_interval
        self._factor = max(1, round(aggregation_interval / monitor.bin_width))

    def peer_utilization(self, peer: str, direction: str = "both") -> PeerBandwidth:
        """Utilization of one peer, MB/s per 10-second interval.

        ``direction="both"`` counts rx+tx, the view of the paper's
        host-level utilization plots.
        """
        rates = self.monitor.rate_series(peer, direction=direction, end_time=self.end_time)
        series = [rate / MB for rate in aggregate_series(rates, self._factor)]
        average = self.monitor.average_rate(peer, direction, 0.0, self.end_time) / MB
        return PeerBandwidth(
            peer=peer,
            series_mb_per_s=series,
            average_mb_per_s=average,
            interval=self.aggregation_interval,
        )

    def average_over(self, peers: Sequence[str], direction: str = "both") -> float:
        """Mean per-peer average utilization in MB/s."""
        if not peers:
            return 0.0
        total = sum(
            self.monitor.average_rate(peer, direction, 0.0, self.end_time) for peer in peers
        )
        return total / len(peers) / MB

    def network_total_mb(self) -> float:
        """Total bytes carried network-wide over the run, in MB."""
        return self.monitor.totals.bytes / MB

    def breakdown_by_kind(self) -> Dict[str, float]:
        """Network-wide MB per message kind (blocks vs digests vs metadata)."""
        return {
            kind: size / MB
            for kind, size in sorted(self.monitor.totals.by_kind_bytes.items())
        }

    def message_counts(self) -> Dict[str, int]:
        return dict(self.monitor.totals.by_kind_messages)
