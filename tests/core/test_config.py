"""GBooster configuration validation and pipeline-depth policy."""

import pytest

from repro.core.config import GBoosterConfig


def test_defaults_are_valid():
    GBoosterConfig().validate()


def test_pipeline_depth_policy():
    config = GBoosterConfig()
    assert config.pipeline_depth(1) == config.pipeline_depth_single
    assert config.pipeline_depth(3) == config.pipeline_depth_multi
    blocking = GBoosterConfig(async_swap=False)
    assert blocking.pipeline_depth(1) == 1
    assert blocking.pipeline_depth(5) == 1


def test_invalid_transport_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(transport="quic").validate()


def test_invalid_policy_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(switching_policy="magic").validate()


def test_invalid_scheduler_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(scheduler="random").validate()


def test_invalid_cache_capacity_rejected():
    with pytest.raises(ValueError):
        GBoosterConfig(cache_capacity=0).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("rto_ms", -5.0),
        ("rto_ms", float("nan")),
        ("rto_ms", float("inf")),
        ("frame_timeout_ms", -1.0),
        ("frame_timeout_ms", 0.0),
        ("traffic_epoch_ms", 0.0),
        ("traffic_epoch_ms", float("nan")),
        ("prediction_horizon_ms", -500.0),
        ("prediction_horizon_ms", float("inf")),
    ],
)
def test_bad_scheduled_delay_rejected_naming_the_field(field, value):
    """Each of these delays is scheduled on the kernel; a bad one used to
    pass validate() and crash deep in the run (negative-delay errors from
    the RTO or watchdog timers, ZeroDivisionError, time running
    backwards)."""
    with pytest.raises(ValueError, match=f"^{field} must be positive"):
        GBoosterConfig(**{field: value}).validate()
