"""Arrival-pattern reports (paper Section V-A, Figs. 10-12).

Every partitioned request stamps the time the program reaches each
``MPI_Pready`` (``PartitionedRequest.pready_times``) — what the paper's
PMPI profiler records — and :mod:`repro.profiler.report` turns those
rounds into the arrival profiles of Figs. 10-11.
"""

from repro.profiler.report import (
    ArrivalProfile,
    arrival_profile,
    early_bird_fraction,
)

__all__ = [
    "ArrivalProfile",
    "arrival_profile",
    "early_bird_fraction",
]
