"""The paper's contribution: MPI Partitioned directly over verbs.

:mod:`repro.core.module` implements the native MCA-style module of
Section IV-A (flag arrays, atomic arrival counting, RDMA-write-with-
immediate transport partitions, multi-QP spreading).  The three
aggregation strategies of Sections IV-B/C/D live in
:mod:`repro.core.aggregators` and :mod:`repro.core.tuning_table`.
"""

from repro.core.immediate import encode_immediate, decode_immediate
from repro.core.aggregators import (
    Aggregator,
    FixedAggregation,
    NoAggregation,
    PLogGPAggregator,
    PlanChoice,
    TimerPLogGPAggregator,
)
from repro.core.module import NativeVerbsModule, NativeSpec
from repro.core.tuning_table import TuningTableAggregator, TuningTable
from repro.core.delta import estimate_min_delta, min_delta_table

__all__ = [
    "encode_immediate",
    "decode_immediate",
    "Aggregator",
    "FixedAggregation",
    "NoAggregation",
    "PLogGPAggregator",
    "PlanChoice",
    "TimerPLogGPAggregator",
    "NativeVerbsModule",
    "NativeSpec",
    "TuningTableAggregator",
    "TuningTable",
    "estimate_min_delta",
    "min_delta_table",
]
