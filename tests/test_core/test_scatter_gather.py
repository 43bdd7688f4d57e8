"""Tests for the scatter/gather flush ablation (rejected in Section IV-D)."""

import numpy as np

from repro.core import FixedAggregation, TimerPLogGPAggregator
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, ms, us
from tests.test_core.test_native_module import run_with_arrivals


def test_sg_flush_posts_single_wr_for_noncontiguous():
    """Arrived {0,1,3,5} at flush -> one multi-SGE WR instead of three."""
    delta = us(50)
    offsets = [0.0, 0.0, 400e-6, 0.0, 400e-6, 0.0, 400e-6, 400e-6]
    sg_module, sg_rbuf, sg_sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta, scatter_gather=True),
        offsets)
    plain_module, _, _ = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets)
    # plain: 3 runs at flush ({0,1},{3},{5}) + late arrivals; sg: 1 WR
    # at flush + late arrivals.
    assert sg_module.total_wrs_posted < plain_module.total_wrs_posted
    assert np.array_equal(sg_rbuf.data, sg_sbuf.data)


def test_sg_data_integrity_over_rounds():
    delta = us(40)
    offsets = [0.0, 300e-6, 0.0, 300e-6, 0.0, 300e-6, 0.0, 0.0]
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 2, timer_delta=delta, scatter_gather=True),
        offsets, rounds=3)
    assert np.array_equal(rbuf.data, sbuf.data)
    assert module.timer_flushes == 3


def test_sg_contiguous_flush_stays_plain():
    """A single contiguous run needs no staging — same as the plain path."""
    delta = us(50)
    offsets = [0.0] * 7 + [400e-6]
    sg_module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta, scatter_gather=True),
        offsets)
    plain_module, _, _ = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets)
    assert sg_module.total_wrs_posted == plain_module.total_wrs_posted
    assert np.array_equal(rbuf.data, sbuf.data)


def test_sg_receiver_pays_staging_copy():
    """The SG path's receive-side staging copy delays the flushed
    partitions' availability relative to the run-based flush — the
    cost that made the paper reject the design."""
    delta = us(50)
    # Large partitions so the staging memcpy matters.
    offsets = [0.0, 400e-6, 0.0, 400e-6, 0.0, 400e-6, 0.0, 0.0]

    def flushed_arrival(aggregator):
        module, rbuf, sbuf = run_with_arrivals(
            aggregator, offsets, psize=256 * KiB)
        # Partition 0 goes out in the flush in both designs.
        return module.recv_req.arrival_times[0]

    t_sg = flushed_arrival(FixedAggregation(1, 1, timer_delta=delta,
                                            scatter_gather=True))
    t_plain = flushed_arrival(FixedAggregation(1, 1, timer_delta=delta))
    assert t_sg > t_plain


def test_timer_aggregator_sg_option():
    agg = TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(35),
                                scatter_gather=True)
    from repro.config import NIAGARA

    plan = agg.plan(32, 256 * KiB, NIAGARA)
    assert plan.scatter_gather
