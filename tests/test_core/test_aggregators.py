"""Tests for aggregation strategies."""

import pytest

from repro.config import NIAGARA
from repro.core import (
    FixedAggregation,
    NoAggregation,
    PLogGPAggregator,
    PlanChoice,
    TimerPLogGPAggregator,
)
from repro.errors import ConfigError
from repro.model.tables import NIAGARA_LOGGP, TABLE1_PAPER
from repro.units import KiB, MiB, ms, us


def test_plan_validation():
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=3, n_qps=1)
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=4, n_qps=0)
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=4, n_qps=1, delta=-1.0)


def test_fixed_aggregation_passthrough():
    plan = FixedAggregation(8, 4).plan(32, 1 * KiB, NIAGARA)
    assert plan.n_transport == 8
    assert plan.n_qps == 4
    assert plan.delta is None


def test_fixed_aggregation_clamped_to_user_count():
    plan = FixedAggregation(32, 2).plan(8, 1 * KiB, NIAGARA)
    assert plan.n_transport == 8


def test_fixed_validation():
    with pytest.raises(ConfigError):
        FixedAggregation(3, 1)
    with pytest.raises(ConfigError):
        FixedAggregation(4, 0)


def test_no_aggregation_one_transport_per_user():
    plan = NoAggregation().plan(16, 4 * KiB, NIAGARA)
    assert plan.n_transport == 16
    # 16 concurrent WRs exactly hit the per-QP limit -> 1 QP suffices,
    # but the default_qps floor applies.
    assert plan.n_qps >= 1


def test_no_aggregation_explicit_qps():
    plan = NoAggregation(n_qps=16).plan(16, 4 * KiB, NIAGARA)
    assert plan.n_qps == 16


def test_no_aggregation_respects_outstanding_limit():
    plan = NoAggregation().plan(128, 1 * KiB, NIAGARA)
    # 128 concurrent WRs need >= ceil(128/16) = 8 QPs.
    assert plan.n_qps >= 8


def test_ploggp_matches_table1():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=100e-3)
    for size, want in TABLE1_PAPER.items():
        n_user = 32
        plan = agg.plan(n_user, size // n_user, NIAGARA)
        assert plan.n_transport == min(want, n_user), f"size {size}"


def test_ploggp_clamps_to_user_request():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=100e-3)
    plan = agg.plan(4, 64 * MiB // 4, NIAGARA)
    assert plan.n_transport <= 4


def test_ploggp_validation():
    with pytest.raises(ConfigError):
        PLogGPAggregator(NIAGARA_LOGGP, delay=-1.0)
    with pytest.raises(ConfigError):
        PLogGPAggregator(NIAGARA_LOGGP, delay=1.0, max_transport=0)


def test_timer_plan_arms_delta():
    agg = TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(35))
    plan = agg.plan(32, 256 * KiB, NIAGARA)
    assert plan.delta == pytest.approx(us(35))


def test_timer_default_delta_from_config():
    agg = TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    plan = agg.plan(32, 256 * KiB, NIAGARA)
    assert plan.delta == pytest.approx(NIAGARA.part.timer_delta)


def test_timer_qps_sized_for_worst_case():
    """Timer mode can issue one WR per user partition."""
    agg = TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(35))
    plan = agg.plan(128, 64 * KiB, NIAGARA)
    assert plan.n_qps >= 128 // NIAGARA.nic.max_outstanding_rdma


def test_timer_validation():
    with pytest.raises(ConfigError):
        TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=-1.0)


def test_describe_strings():
    assert "fixed" in FixedAggregation(2, 1).describe()
    assert "none" == NoAggregation().describe()
    assert "ploggp" in PLogGPAggregator(NIAGARA_LOGGP, delay=0.0).describe()
    assert "timer" in TimerPLogGPAggregator(
        NIAGARA_LOGGP, delay=0.0, delta=us(1)).describe()
