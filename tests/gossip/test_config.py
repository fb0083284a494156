"""Construction-time validation of the gossip configs."""

import pytest

from repro.gossip.config import EnhancedGossipConfig, OriginalGossipConfig, RecoveryConfig

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "config, field, value",
    [
        (RecoveryConfig, "t_recovery", NAN),
        (RecoveryConfig, "t_state_info", 0.0),
        (RecoveryConfig, "batch_max", 0),
        (OriginalGossipConfig, "t_pull", NAN),
        (OriginalGossipConfig, "t_push", INF),
        (EnhancedGossipConfig, "request_timeout", NAN),
        (EnhancedGossipConfig, "retry_backoff", NAN),
    ],
)
def test_non_finite_or_out_of_range_values_are_refused_by_name(config, field, value):
    """Each of these used to construct, and a NaN period or timeout only
    failed (or silently never fired) once the run had started."""
    with pytest.raises(ValueError, match=rf"{config.__name__}\.{field} must be finite"):
        config(**{field: value})
