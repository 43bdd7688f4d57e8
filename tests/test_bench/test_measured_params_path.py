"""End-to-end: Netgauge-measured parameters drive the live aggregator.

The paper's full loop — measure LogGP on the platform, hand the table
to the PLogGP aggregator, run — executed entirely in-repo.
"""

import pytest

from repro.bench.overhead import run_overhead
from repro.config import NIAGARA
from repro.core import PLogGPAggregator
from repro.model.netgauge import measure_loggp
from repro.units import KiB, MiB, ms


@pytest.fixture(scope="module")
def measured_table():
    return measure_loggp(sizes=[4 * KiB, 64 * KiB, 1 * MiB],
                         rounds=4, burst=6)


def test_measured_table_drives_aggregator(measured_table):
    agg = PLogGPAggregator(measured_table, delay=ms(4))
    plan = agg.plan(16, 64 * KiB, NIAGARA)
    assert 1 <= plan.n_transport <= 16
    assert plan.n_qps >= 1


def test_measured_aggregator_runs_and_wins_at_medium(measured_table):
    """Whatever the measured table picks, the native module still beats
    the per-message baseline at a medium size."""
    agg = PLogGPAggregator(measured_table, delay=ms(4))
    base = run_overhead(None, n_user=16, total_bytes=256 * KiB,
                        iterations=6, warmup=2)
    ours = run_overhead(agg, n_user=16, total_bytes=256 * KiB,
                        iterations=6, warmup=2)
    assert base.mean_time / ours.mean_time > 1.1


def test_measured_vs_calibrated_plans_comparable(measured_table):
    """Today's (measured, calibrated) transport counts, pinned: the
    measured table plans 2 and 32 transports where the hand-set
    ``NIAGARA_LOGGP`` plans 1 and 2.  That gap is ROADMAP item 2's named
    deviation, and the change that closes it updates this pin on
    purpose."""
    from repro.model.tables import NIAGARA_LOGGP

    measured = PLogGPAggregator(measured_table, delay=ms(4))
    calibrated = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    plans = {size: (measured.plan(32, size // 32, NIAGARA).n_transport,
                    calibrated.plan(32, size // 32, NIAGARA).n_transport)
             for size in (64 * KiB, 1 * MiB)}
    assert plans == {64 * KiB: (2, 1), 1 * MiB: (32, 2)}
