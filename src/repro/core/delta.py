"""Minimum-δ estimation from profiled arrival patterns (Section V-C3).

"For each message size and partition count, we obtained the average
arrival time for each partition that was not the laggard thread.  Then
we obtained our minimum δ by calculating the difference between the
first and last (non-laggard) thread to arrive."
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError


def estimate_min_delta(rounds: Sequence[Sequence[float]],
                       laggards_per_round: int = 1) -> float:
    """Minimum δ covering the non-laggard arrival spread.

    Per round, the ``laggards_per_round`` latest arrivals are dropped
    (the single-thread-delay model delays exactly one, and the victim
    may rotate between rounds) and the spread between the first and
    last remaining arrival is taken; rounds are then averaged — the
    paper's recipe of excluding the laggard before aggregating
    (Section V-C3).

    Parameters
    ----------
    rounds:
        Per-round lists of per-partition ``MPI_Pready`` times.
    laggards_per_round:
        How many of the latest arrivals to exclude each round.
    """
    if not rounds:
        raise ConfigError("need at least one round of arrival data")
    n = len(rounds[0])
    if any(len(r) != n for r in rounds):
        raise ConfigError("rounds have inconsistent partition counts")
    if not (0 <= laggards_per_round < n):
        raise ConfigError(
            f"cannot exclude {laggards_per_round} of {n} arrivals")
    spreads = min_delta_per_round(rounds, laggards_per_round)
    return float(np.mean(spreads))


def min_delta_per_round(rounds: Sequence[Sequence[float]],
                        laggards_per_round: int = 1) -> list[float]:
    """Per-round non-laggard spread (diagnostic variant)."""
    out = []
    for r in rounds:
        srt = np.sort(np.asarray(r, dtype=float))
        if laggards_per_round:
            srt = srt[:-laggards_per_round]
        out.append(float(srt[-1] - srt[0]) if len(srt) > 1 else 0.0)
    return out

