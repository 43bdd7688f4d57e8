"""Per-edge circuit breakers (chaos layer).

:class:`CircuitBreaker` is the classic three-state breaker, a pure
state machine free of simulation events so the off path costs nothing.
Failure events (retry exhaustions) accumulate; ``threshold``
*consecutive* failures trip the breaker OPEN, which the degradation
ladder (:class:`repro.mpi.ladder.LadderModule`, its owner) maps to
"demote this edge one rung".  On a fallback rung the breaker runs
HALF_OPEN: ``probation`` consecutive clean rounds close it again, which
the ladder maps to "probe a promotion".
"""

from __future__ import annotations

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one edge.

    ``record_failure()`` returns True exactly when the failure trips
    the breaker (CLOSED/HALF_OPEN -> OPEN); ``record_success()``
    returns True exactly when a probation completes (HALF_OPEN ->
    CLOSED).  Failures are counted per *event*, successes per clean
    round — the caller decides what constitutes each.
    """

    def __init__(self, threshold: int, probation: int = 1):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probation < 1:
            raise ValueError(f"probation must be >= 1, got {probation}")
        self.threshold = threshold
        self.probation = probation
        self.state = CLOSED
        #: Consecutive failure events since the last success/reset.
        self.failures = 0
        #: Consecutive clean rounds while HALF_OPEN.
        self.successes = 0
        #: Times the breaker tripped over its lifetime.
        self.trips = 0

    def record_failure(self) -> bool:
        """Count one failure event; True iff this one trips the breaker."""
        if self.state is OPEN:
            return False
        self.failures += 1
        self.successes = 0
        if self.failures >= self.threshold:
            self.state = OPEN
            self.trips += 1
            return True
        return False

    def record_success(self) -> bool:
        """Count one clean round; True iff a probation just completed."""
        self.failures = 0
        if self.state is not HALF_OPEN:
            return False
        self.successes += 1
        if self.successes >= self.probation:
            self.state = CLOSED
            self.successes = 0
            return True
        return False

    def begin_probation(self) -> None:
        """Enter HALF_OPEN: clean rounds now count toward re-closing."""
        self.state = HALF_OPEN
        self.failures = 0
        self.successes = 0

    def reset(self) -> None:
        """Fully re-close (a demotion installed a fresh transport)."""
        self.state = CLOSED
        self.failures = 0
        self.successes = 0

    def __repr__(self) -> str:
        return (f"<CircuitBreaker {self.state} failures={self.failures}"
                f"/{self.threshold} trips={self.trips}>")
