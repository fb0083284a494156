"""Configuration of both gossip modules, with the paper's defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checks import require_finite


@dataclass
class RecoveryConfig:
    """Recovery (anti-entropy) parameters, shared by both modules.

    Fabric defaults: recovery every 10 s; state info (ledger height
    metadata) gossiped every 4 s to a few peers; missing blocks are fetched
    in bounded consecutive batches.
    """

    t_recovery: float = 10.0
    t_state_info: float = 4.0
    state_info_fanout: int = 3
    batch_max: int = 10

    def __post_init__(self) -> None:
        require_finite(self, "t_recovery", "t_state_info", "batch_max", positive=True)
        require_finite(self, "state_info_fanout")


@dataclass
class OriginalGossipConfig:
    """Fabric v1.2 defaults (paper §III-A, §V-B).

    Attributes:
        fout: infect-and-die push fan-out (default 3).
        t_push: push buffer flush timer (default 10 ms).
        push_buffer_max: flush the buffer early past this many blocks.
        fin: pull fan-out (default 3).
        t_pull: pull period (default 4 s).
        pull_digest_window: how many recent blocks a pull digest covers.
        recovery: anti-entropy parameters.
    """

    fout: int = 3
    t_push: float = 0.010
    push_buffer_max: int = 10
    fin: int = 3
    t_pull: float = 4.0
    pull_digest_window: int = 20
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        if self.fout < 1 or self.fin < 0:
            raise ValueError("fan-outs must be positive")
        require_finite(self, "t_push")
        require_finite(self, "t_pull", positive=True)


# The largest TTL: a peer keeps the counters it has seen with a block as one
# 64-bit word, bit k for counter k (repro.gossip.push_infect_contagion).
MAX_TTL = 63


@dataclass
class EnhancedGossipConfig:
    """The paper's enhanced module (paper §IV, §V-C).

    The two evaluated configurations, both achieving pe <= 1e-6 at n=100:
    ``fout=4, ttl=9, ttl_direct=2`` and ``fout=2, ttl=19, ttl_direct=3``.

    Attributes:
        fout: infect-upon-contagion fan-out.
        ttl: hop counter limit; pairs ``(block, counter)`` with
            ``counter == ttl`` are not forwarded further. At most
            :data:`MAX_TTL`; ``ttl_for_target`` gives 42 at 10^5 peers,
            f_out 2 and p_e 1e-12.
        ttl_direct: up to this counter value blocks are pushed in full
            without a preceding digest (collisions are rare early on).
        leader_fanout: how many peers the leader forwards a new block to
            (the randomized-initial-gossiper enhancement uses 1; the
            Fig. 10 ablation uses ``fout``).
        use_digests: Fig. 11 ablation switch; False pushes full blocks for
            every hop.
        request_timeout: base timeout of the block-request retry ladder —
            a stalled transfer is re-requested from a *different* digest
            holder after this long (backed off per attempt); 0 disables
            retries and leaves stalls to the recovery component alone.
        request_retries: retries per block before the in-flight slot is
            released back to later digests / recovery.
        retry_backoff: multiplicative timeout growth per retry attempt.
        recovery: anti-entropy parameters (pull is removed, recovery kept).
    """

    fout: int = 4
    ttl: int = 9
    ttl_direct: int = 2
    leader_fanout: int = 1
    use_digests: bool = True
    request_timeout: float = 0.5
    request_retries: int = 2
    retry_backoff: float = 2.0
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def __post_init__(self) -> None:
        if self.fout < 1 or self.leader_fanout < 1:
            raise ValueError("fan-outs must be positive")
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")
        if self.ttl > MAX_TTL:
            raise ValueError(f"ttl must be <= {MAX_TTL} (one seen-pair bit per counter)")
        if self.ttl_direct < 0 or self.ttl_direct > self.ttl:
            raise ValueError("require 0 <= ttl_direct <= ttl")
        require_finite(self, "request_timeout", "retry_backoff")
        if self.request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")

    @classmethod
    def paper_f4(cls) -> "EnhancedGossipConfig":
        """First evaluated configuration: fout=4, TTL=9, TTLdirect=2."""
        return cls(fout=4, ttl=9, ttl_direct=2)

    @classmethod
    def paper_f2(cls) -> "EnhancedGossipConfig":
        """Second evaluated configuration: fout=2, TTL=19, TTLdirect=3."""
        return cls(fout=2, ttl=19, ttl_direct=3)


@dataclass
class BackgroundTrafficConfig:
    """Calibrated background metadata traffic (idle floor of Fig. 6).

    Defaults give each peer ~0.2 MB/s of transmitted background bytes, i.e.
    ~0.4 MB/s rx+tx per peer in a homogeneous network — the idle level of
    the paper's bandwidth figures.

    The default granularity is 25 KB every 250 ms, four times finer than
    the original 100 KB/s aggregate: closer to the many-small-messages
    shape of real membership/deliver chatter at the same byte rate. The
    finer cadence is affordable because emissions ride the shared timer
    wheel and each fanout is accounted and occupies its sender without
    ever becoming a delivery event (``Network.send_aggregate``) — its
    monitor accounting is byte-for-byte identical to per-copy sends.
    """

    enabled: bool = True
    period: float = 0.25
    fanout: int = 2
    message_size: int = 25_000

    def __post_init__(self) -> None:
        require_finite(self, "period", positive=True)
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout!r}")
        require_finite(self, "message_size")

    @property
    def per_peer_tx_rate(self) -> float:
        """Average transmitted bytes/second per peer."""
        if not self.enabled:
            return 0.0
        return self.fanout * self.message_size / self.period
