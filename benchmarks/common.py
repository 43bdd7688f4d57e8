"""Shared workload definitions for the figure-regeneration benchmarks.

Every ``bench_*`` module regenerates one table or figure of the paper:
run it directly (``python benchmarks/bench_fig06_....py``) for the
paper-scale sweep with printed rows and JSON artifacts, or through
pytest-benchmark (``pytest benchmarks/ --benchmark-only``) for a
reduced-size run whose reproduced numbers are attached as
``extra_info``.  ``repro-bench bench list|run|compare`` drives the
same experiments through the registry.

The knobs themselves live in :mod:`repro.exp.profiles` (the ``paper``
and ``fast`` presets); this module re-exports them under the
historical names so existing imports keep working.  :func:`run_fast`
runs one experiment's row at the ``fast`` profile, which is what every
pytest-benchmark wrapper checks its shape on.
"""

from __future__ import annotations

from repro.core import PLogGPAggregator, TimerPLogGPAggregator
from repro.exp import get_experiment, run_spec
from repro.exp.profiles import (
    FAST,
    PAPER,
    PERCEIVED_COMPUTE,
    PERCEIVED_NOISE,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import ms, us

#: Paper iteration counts (full runs).
PTP_ITER = PAPER.ptp_iter
SWEEP_ITER = PAPER.sweep_iter

#: Reduced counts for pytest-benchmark runs.
FAST_PTP = FAST.ptp_iter
FAST_SWEEP = FAST.sweep_iter

#: Message-size grids.
OVERHEAD_SIZES = list(PAPER.overhead_sizes)
OVERHEAD_SIZES_FAST = list(FAST.overhead_sizes)
PERCEIVED_SIZES = list(PAPER.perceived_sizes)
PERCEIVED_SIZES_FAST = list(FAST.perceived_sizes)
SWEEP_SIZES = list(PAPER.sweep_sizes)
SWEEP_SIZES_FAST = list(FAST.sweep_sizes)

__all__ = [
    "FAST_PTP", "FAST_SWEEP", "OVERHEAD_SIZES", "OVERHEAD_SIZES_FAST",
    "PERCEIVED_COMPUTE", "PERCEIVED_NOISE", "PERCEIVED_SIZES",
    "PERCEIVED_SIZES_FAST", "PTP_ITER", "SWEEP_ITER", "SWEEP_SIZES",
    "SWEEP_SIZES_FAST", "ploggp_aggregator", "run_fast", "timer_aggregator",
]


def run_fast(name: str) -> dict:
    """The collected payload of experiment ``name`` at the fast profile."""
    return run_spec(get_experiment(name).build(FAST))


def ploggp_aggregator():
    """The PLogGP aggregator as evaluated (4 ms delay input)."""
    return PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))


def timer_aggregator(delta=us(3000)):
    """The timer-based design (Fig. 9 uses delta = 3000 us)."""
    return TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=delta)
