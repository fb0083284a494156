"""Calibrated background metadata traffic.

A real Fabric peer continuously exchanges membership heart-beats, state
info, discovery and deliver-service chatter; the paper measures this idle
floor at ~0.4 MB/s per peer (rx+tx, Fig. 6 after t=1500 s). The simulator
reproduces it with a periodic emitter per peer whose rate is set by
:class:`repro.gossip.config.BackgroundTrafficConfig`; only the byte rate
matters for the figures.

Two scaling mechanisms keep the event count tractable at paper scale:

* the emitters ride the shared timer wheel (via
  ``host.every``), so the per-peer periodic ticks coalesce into shared
  slot events instead of one heap entry per peer per period;
* each emission's fanout of :class:`MembershipAlive` copies goes through
  :meth:`~repro.net.network.Network.send_aggregate`, which accounts the
  bytes exactly as a per-copy ``send`` loop would, occupies the sender's
  NIC and link for the burst and schedules nothing: no peer reads the
  message, so its delivery would be an event nobody reads.
"""

from __future__ import annotations

from repro.gossip.config import BackgroundTrafficConfig
from repro.gossip.messages import MembershipAlive
from repro.gossip.view import OrganizationView
from repro.simulation.random import first_draw


class BackgroundTraffic:
    """Per-peer periodic emitter of aggregate metadata bytes."""

    STREAM = "background"

    __slots__ = ("host", "view", "config", "_rng", "messages_sent", "_fanout", "_message", "_network")

    def __init__(self, host, view: OrganizationView, config: BackgroundTrafficConfig) -> None:
        self.host = host
        self.view = view
        self.config = config
        self._rng = None  # bound by first_draw
        self.messages_sent = 0
        # Per-emission constants, hoisted out of the periodic hot path. The
        # message instance is shared across emissions: MembershipAlive is
        # immutable and only its byte size reaches the monitor.
        self._fanout = config.fanout
        self._message = MembershipAlive(config.message_size)
        # send_aggregate is looked up per emission, not pre-bound, so a
        # wrapper assigned on the network instance sees background traffic
        # (tests/gossip/test_background.py turns it into per-copy sends).
        self._network = host.network

    def start(self) -> None:
        if not self.config.enabled:
            return
        phase = (self._rng or first_draw(self)).uniform(0.0, self.config.period)
        self.host.every(self.config.period, self._emit, initial_delay=phase)

    def _emit(self) -> None:
        targets = self.view.sample_channel(self._rng or first_draw(self), self._fanout)
        if targets:
            self._network.send_aggregate(self.host.name, targets, self._message)
            self.messages_sent += len(targets)
