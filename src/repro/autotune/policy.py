"""Tuning policies: how the controller picks the next round's plan.

A :class:`Policy` maps the observation stream to a
:class:`~repro.core.aggregators.PlanChoice` — the ``(n_transport,
n_qps, δ)`` triple applied to the next round.  Three implementations
span the design space the paper left open (Section IV-D, "an online
auto-tuning approach could be used"):

* :class:`StaticPolicy` — one fixed choice; wraps the paper's
  open-loop aggregators so the controller machinery can be validated
  against them bit for bit.
* :class:`DeltaTrackerPolicy` — keeps the transport layout fixed and
  retargets δ to the observed non-laggard arrival-spread quantile, the
  measurement-guided replacement for Fig. 12's offline min-δ table.
* :class:`BanditPolicy` — decaying epsilon-greedy search over a
  candidate plan set seeded by the PLogGP prediction
  (:func:`candidate_plans`), the cheap incremental replacement for the
  23-hour brute-force table.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import replace
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.config import ClusterConfig
from repro.core.aggregators import PlanChoice, _qps_for
from repro.errors import ConfigError, TuningError
from repro.model.ploggp import optimal_transport_partitions
from repro.units import is_power_of_two, powers_of_two

from repro.autotune.observe import ArrivalTracker, IterationObservation

#: Plays the best arm needs before a search policy is confident.
MIN_CONFIDENT_PLAYS = 2
#: Octaves either side of the model's optimum a seeded arm set spans.
SEED_SPAN = 2


class Policy(abc.ABC):
    """Strategy interface for closed-loop plan selection."""

    @abc.abstractmethod
    def candidates(self) -> list[PlanChoice]:
        """Every choice this policy may ever return."""

    @abc.abstractmethod
    def choose(self, round_no: int) -> PlanChoice:
        """The plan to apply for ``round_no``."""

    def observe(self, choice: PlanChoice, obs: IterationObservation,
                tracker: ArrivalTracker) -> None:
        """Feedback: ``choice`` ran and produced ``obs``."""

    @abc.abstractmethod
    def best(self) -> PlanChoice:
        """Current best estimate (what the store should persist)."""

    @property
    def confident(self) -> bool:
        """True once :meth:`best` is worth persisting."""
        return False

    def plan_space_digest(self) -> str:
        """Content digest of the plan space this policy searches.

        Mixed into the :class:`~repro.autotune.store.TuningStore` key,
        so two policies whose knob tuples coincide but whose plan
        structures differ can never collide on a stored entry.  The
        default hashes the sorted IR digests of every candidate;
        policies with an unbounded space override this with their
        generator's identity.
        """
        import hashlib

        digests = sorted(c.plan.digest for c in self.candidates())
        return hashlib.sha256(
            "\n".join(digests).encode()).hexdigest()[:16]

    def describe(self) -> str:
        return type(self).__name__


class StaticPolicy(Policy):
    """A single fixed choice (open-loop plan inside the closed loop)."""

    def __init__(self, choice: PlanChoice):
        self.choice = choice

    def candidates(self):
        return [self.choice]

    def choose(self, round_no):
        return self.choice

    def best(self):
        return self.choice

    @property
    def confident(self):
        return True

    def describe(self):
        return f"static({self.choice.n_transport}T/{self.choice.n_qps}QP)"


class DeltaTrackerPolicy(Policy):
    """Retarget δ to the observed arrival-spread quantile.

    Transport layout stays at ``base``; after each round δ moves toward
    ``margin x spread_quantile(quantile)`` with EWMA smoothing
    ``alpha``, clamped to ``[min_delta, max_delta]``.  Steering on a
    windowed quantile means one quiet round cannot collapse δ below
    the recurring skew; a tracker window of one with ``quantile=1``
    degenerates to smoothing each round's own spread (the
    ``["adaptive", p]`` experiment descriptor).
    """

    def __init__(self, base: PlanChoice, quantile: float = 0.95,
                 margin: float = 1.25, alpha: float = 0.5,
                 min_delta: float = 1e-6, max_delta: float = 1e-3,
                 warm_rounds: int = 4):
        if base.delta is None:
            raise ConfigError("DeltaTrackerPolicy needs a δ-armed base plan")
        if not (0 < quantile <= 1):
            raise ConfigError(f"quantile must be in (0, 1], got {quantile}")
        if margin <= 0:
            raise ConfigError(f"margin must be positive, got {margin}")
        if not (0 < alpha <= 1):
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if not (0 < min_delta <= max_delta):
            raise ConfigError("need 0 < min_delta <= max_delta")
        if warm_rounds < 1:
            raise ConfigError(f"warm_rounds must be >= 1, got {warm_rounds}")
        self.base = base
        self.quantile = quantile
        self.margin = margin
        self.alpha = alpha
        self.min_delta = min_delta
        self.max_delta = max_delta
        self.warm_rounds = warm_rounds
        self._delta = base.delta
        self._rounds = 0

    def candidates(self):
        return [self.base]

    def choose(self, round_no):
        return self.best()

    def observe(self, choice, obs, tracker):
        self._rounds += 1
        # With the laggard set aside, two partitions leave a pack of
        # one: its spread is 0 by construction, not by measurement, and
        # would walk δ down to min_delta.
        if (not tracker.ready
                or len(obs.pready_times) - tracker.laggards < 2):
            return
        target = self.margin * tracker.spread_quantile(self.quantile)
        blended = (1 - self.alpha) * self._delta + self.alpha * target
        self._delta = min(max(blended, self.min_delta), self.max_delta)

    def best(self):
        return replace(self.base, delta=self._delta)

    @property
    def confident(self):
        return self._rounds >= self.warm_rounds

    def describe(self):
        return (f"delta-tracker(q={self.quantile}, "
                f"delta={self._delta:.3e})")


class ArmPolicy(Policy):
    """Base of the policies that score a set of arms by observed cost.

    The one copy of what :class:`BanditPolicy` and
    :class:`~repro.autotune.plan_policy.PlanMutationPolicy` share:
    per-arm plays, the cost estimate, the decaying-ε draw and the
    confidence rule.  Arms are :class:`PlanChoice` values in insertion
    order; each joins with a ``rank`` that breaks ties among equal mean
    costs (the bandit ranks by arm index, the mutation walk by plan
    digest).  ``window`` switches an arm's estimate from the all-time
    running mean to the mean of its last ``window`` costs.
    """

    def __init__(self, epsilon: float, decay: float, seed: int,
                 window: Optional[int]):
        if not (0 <= epsilon <= 1):
            raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
        if not (0 < decay <= 1):
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        if window is not None and window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.epsilon = epsilon
        self.decay = decay
        self.window = window
        self._rng = np.random.default_rng(seed)
        self._steps = 0
        self._rank: dict[PlanChoice, Hashable] = {}
        self._plays: dict[PlanChoice, int] = {}
        self._mean_cost: dict[PlanChoice, float] = {}
        self._recent: dict[PlanChoice, deque] = {}

    def _add_arm(self, arm: PlanChoice, rank: Hashable) -> None:
        self._rank[arm] = rank
        self._plays[arm] = 0
        self._mean_cost[arm] = 0.0
        if self.window is not None:
            self._recent[arm] = deque(maxlen=self.window)

    def _unplayed(self) -> Optional[PlanChoice]:
        """The first arm (insertion order) still owed its first play."""
        for arm, plays in self._plays.items():
            if plays == 0:
                return arm
        return None

    def _explore(self) -> Optional[PlanChoice]:
        """With probability ``epsilon x decay^t``, a uniform arm draw."""
        self._steps += 1
        if self._rng.random() < self.epsilon * self.decay ** self._steps:
            arms = list(self._plays)
            return arms[int(self._rng.integers(len(arms)))]
        return None

    def candidates(self):
        return list(self._plays)

    def observe(self, choice, obs, tracker):
        if choice not in self._plays:
            return  # a pinned/foreign choice; nothing to credit
        self._plays[choice] += 1
        if self.window is not None:
            recent = self._recent[choice]
            recent.append(obs.completion_time)
            self._mean_cost[choice] = sum(recent) / len(recent)
        else:
            self._mean_cost[choice] += (
                obs.completion_time - self._mean_cost[choice]
            ) / self._plays[choice]

    def best(self):
        """The played arm of lowest mean cost (the first arm before
        any play)."""
        played = [arm for arm, plays in self._plays.items() if plays]
        if not played:
            return next(iter(self._plays))
        return min(played,
                   key=lambda arm: (self._mean_cost[arm], self._rank[arm]))

    @property
    def confident(self):
        if self._unplayed() is not None:
            return False
        return self._plays[self.best()] >= MIN_CONFIDENT_PLAYS


class BanditPolicy(ArmPolicy):
    """Multi-armed bandit over a candidate plan set.

    Plays every arm once, then exploits the lowest mean completion time
    except with probability ``epsilon x decay^t`` (decaying
    exploration).

    ``window`` switches the per-arm estimate from the all-time running
    mean to the mean of the arm's last ``window`` observations.  On a
    stationary fabric the two converge; on a shared fabric where the
    background load shifts (see :mod:`repro.fleet`), the windowed
    estimate forgets the old regime after ``window`` plays instead of
    dragging a stale prior forever, which is what lets the bandit
    re-converge after a noisy neighbor arrives.  ``None`` (the
    default) keeps the historical running-mean behaviour bit for bit.

    Deterministic given ``seed`` — exploration draws come from
    ``numpy.random.default_rng(seed)``.
    """

    def __init__(self, arms: Sequence[PlanChoice], epsilon: float = 0.2,
                 decay: float = 0.95, seed: int = 0,
                 window: Optional[int] = None):
        arms = list(arms)
        if not arms:
            raise ConfigError("BanditPolicy needs at least one arm")
        if len(set(arms)) != len(arms):
            raise ConfigError("duplicate bandit arms")
        super().__init__(epsilon, decay, seed, window)
        for index, arm in enumerate(arms):
            self._add_arm(arm, rank=index)

    def choose(self, round_no):
        # Initial sweep: every arm gets one pull before any exploitation.
        arm = self._unplayed()
        if arm is not None:
            return arm
        return self._explore() or self.best()

    def describe(self):
        played = sum(1 for p in self._plays.values() if p)
        return (f"bandit(epsilon, {played}/{len(self._plays)} arms "
                f"played)")


def candidate_plans(
    n_user: int,
    partition_size: int,
    config: ClusterConfig,
    delay: float = 0.0,
    counts: Optional[Sequence[int]] = None,
    deltas: Sequence[Optional[float]] = (None,),
) -> list[PlanChoice]:
    """Candidate ``(n_transport, n_qps, δ)`` arms for a bandit.

    The arm set is *seeded by the PLogGP prediction* on the Niagara
    calibration: transport counts are the powers of two within
    ``2^SEED_SPAN`` of the model's optimum (clipped to ``[1, n_user]``),
    so the bandit explores a neighbourhood of the model instead of the
    whole space.  ``counts`` overrides the seeding with an explicit
    list.  Per count, QP candidates are 1 and the WR-limit-derived
    count; each combination is crossed with every δ in ``deltas``
    (None = plain path).
    """
    if not is_power_of_two(n_user):
        raise TuningError(f"n_user must be a power of two, got {n_user}")
    if not deltas:
        raise TuningError("need at least one delta candidate")
    if counts is not None:
        chosen = sorted(set(int(c) for c in counts))
        for c in chosen:
            if not is_power_of_two(c) or c > n_user:
                raise TuningError(
                    f"candidate transport count {c} invalid for "
                    f"n_user {n_user}")
    else:
        from repro.model.tables import NIAGARA_LOGGP

        seed_t = optimal_transport_partitions(
            NIAGARA_LOGGP, n_user * partition_size, n_user=n_user,
            delay=delay, max_transport=n_user)
        lo = max(1, seed_t >> SEED_SPAN)
        hi = min(n_user, seed_t << SEED_SPAN)
        chosen = list(powers_of_two(lo, hi))
    arms = []
    for t in chosen:
        qp_candidates = sorted({1, _qps_for(t, t, config),
                                _qps_for(t, n_user, config)})
        for n_qps in qp_candidates:
            for delta in deltas:
                arms.append(PlanChoice(n_transport=t, n_qps=n_qps,
                                       delta=delta))
    return arms
