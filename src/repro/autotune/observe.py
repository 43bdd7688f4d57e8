"""Per-iteration observations and arrival statistics.

The controller's sensor layer: each round of a persistent partitioned
exchange yields one :class:`IterationObservation` (per-partition
``Pready`` times, achieved completion time, WR/flush/retransmit deltas
from the fabric's ``counters``), and an
:class:`ArrivalTracker` folds the arrival timestamps into EWMA and
windowed-quantile statistics of the inter-partition gaps — the signal
the δ-retargeting policy steers on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class IterationObservation:
    """What one completed round of the exchange looked like.

    Attributes
    ----------
    round:
        The request round the observation belongs to (``req.round``).
    completion_time:
        Iteration wall time: ``max(send done, recv done) - round start``.
    pready_times:
        Per-partition ``MPI_Pready`` timestamps (absolute virtual time;
        may be non-monotone — threads race).
    wrs_posted:
        WRs the module posted this round.
    timer_flushes:
        δ-timer flushes this round.
    retransmits:
        Fabric retransmit counter delta this round (fault pressure).
    tainted:
        True when the round overlapped a fault-recovery window (retry
        exhaustion, reconnect, or replay in flight): the timing
        measures the fault, not the plan, and the controller
        quarantines it from the policy statistics.
    """

    round: int
    completion_time: float
    pready_times: tuple[float, ...] = ()
    wrs_posted: int = 0
    timer_flushes: int = 0
    retransmits: int = 0
    tainted: bool = False


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile without numpy (tiny windows, hot path)."""
    if not values:
        return 0.0
    if not (0.0 <= q <= 1.0):
        raise ConfigError(f"quantile must be in [0, 1], got {q}")
    srt = sorted(values)
    idx = min(len(srt) - 1, max(0, round(q * (len(srt) - 1))))
    return srt[idx]


@dataclass
class ArrivalTracker:
    """EWMA + windowed-quantile statistics of arrival gaps.

    Two families of signal, both per-round:

    * the **non-laggard spread** — first-to-last gap after dropping the
      ``laggards`` latest arrivals (the paper's min-δ recipe,
      Section V-C3) — what a δ-timer should cover;
    * the **laggard gap** — how far the excluded laggard(s) trail the
      non-laggard pack — what a δ-timer should *not* wait for.

    ``alpha`` smooths the EWMAs; the last ``window`` rounds feed the
    spread's quantile estimator (:meth:`spread_quantile`).
    """

    alpha: float = 0.3
    window: int = 32
    laggards: int = 1
    ewma_spread: Optional[float] = None
    ewma_laggard_gap: Optional[float] = None
    rounds_seen: int = 0
    _spreads: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.laggards < 0:
            raise ConfigError(f"negative laggards: {self.laggards}")

    def observe(self, pready_times: Sequence[float]) -> None:
        """Fold one round of arrival timestamps into the statistics."""
        srt = sorted(pready_times)
        if not srt:
            return
        self.rounds_seen += 1
        drop = min(self.laggards, len(srt) - 1)
        pack = srt[:len(srt) - drop] if drop else srt
        spread = pack[-1] - pack[0] if len(pack) > 1 else 0.0
        laggard_gap = srt[-1] - pack[-1] if drop else 0.0
        self._push(self._spreads, spread)
        self.ewma_spread = self._blend(self.ewma_spread, spread)
        self.ewma_laggard_gap = self._blend(self.ewma_laggard_gap, laggard_gap)

    def _push(self, dq: deque, value: float) -> None:
        dq.append(value)
        while len(dq) > self.window:
            dq.popleft()

    def _blend(self, current: Optional[float], value: float) -> float:
        if current is None:
            return value
        return (1 - self.alpha) * current + self.alpha * value

    def spread_quantile(self, q: float = 0.95) -> float:
        """Windowed quantile of the non-laggard spread."""
        return _quantile(self._spreads, q)

    @property
    def ready(self) -> bool:
        """True once at least one round has been observed."""
        return self.rounds_seen > 0
