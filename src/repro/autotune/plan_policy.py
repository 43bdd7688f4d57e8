"""Plan-mutation search: tune by rewriting the plan IR, not a grid.

Where :class:`~repro.autotune.policy.BanditPolicy` draws arms from a
fixed candidate grid, :class:`PlanMutationPolicy` walks the mutation
graph of :func:`repro.plan.mutate.neighbors`: it starts from a
model-seeded leaf plan, plays each frontier plan, and — once the
incumbent best has proven itself — expands the frontier with the
incumbent's single-step rewrites.  Search therefore spends its rounds
in the neighbourhood of what is already winning instead of sweeping a
fixed cross product, and the set of plans it may ever try is exactly
the reachable region of the rewrite graph.

The frontier is a set of :class:`~repro.core.aggregators.PlanChoice`
arms — a leaf plan and a choice are the same value — and each
member's plan digest is computed once, when it joins; ties between
equal costs and the tuning-store key go through those digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Optional, Sequence

from repro.config import ClusterConfig
from repro.core.aggregators import PlanChoice, _qps_for
from repro.errors import ConfigError
from repro.plan import Plan
from repro.plan.mutate import neighbors

from repro.autotune.policy import ArmPolicy


class PlanMutationPolicy(ArmPolicy):
    """Epsilon-greedy search over the plan-rewrite graph.

    Rounds proceed in three regimes:

    1. **sweep** — every frontier plan gets one play, in insertion
       order;
    2. **expand** — when the incumbent best has ``expand_after``
       plays and has not been expanded yet, its
       :func:`~repro.plan.mutate.neighbors` join the frontier
       (bounded by ``max_frontier``), sending the policy back to the
       sweep;
    3. **exploit** — otherwise play the incumbent, except with
       probability ``epsilon x decay^t`` a uniform frontier draw
       (deterministic given ``seed``).

    The policy is ``confident`` once the frontier is fully played,
    the incumbent has been expanded (its whole neighbourhood was
    evaluated — a local optimum of the rewrite graph), and the
    incumbent has ``MIN_CONFIDENT_PLAYS`` plays.

    ``window`` mirrors :class:`~repro.autotune.policy.BanditPolicy`:
    when set, each plan's cost estimate is the mean of its last
    ``window`` observations rather than the all-time running mean, so
    the walk can re-converge after the fabric's background load shifts
    (the :mod:`repro.fleet` noisy-neighbor scenario).  ``None`` keeps
    the historical behaviour bit for bit.
    """

    def __init__(self, seed_plan: Plan, n_user: int,
                 config: ClusterConfig,
                 deltas: Sequence[Optional[float]] = (),
                 qp_cap: Optional[int] = None,
                 epsilon: float = 0.3, decay: float = 0.9,
                 seed: int = 0, expand_after: int = 2,
                 max_frontier: int = 32,
                 window: Optional[int] = None):
        super().__init__(epsilon, decay, seed, window)
        if expand_after < 1:
            raise ConfigError(
                f"expand_after must be >= 1, got {expand_after}")
        if max_frontier < 2:
            raise ConfigError(
                f"max_frontier must be >= 2, got {max_frontier}")
        self.n_user = n_user
        self.config = config
        self.deltas = tuple(deltas)
        #: Ceiling on qp_pool mutations; the adaptive aggregator
        #: provisions this many QPs, so no rewrite can outgrow them.
        self.qp_cap = qp_cap if qp_cap is not None \
            else _qps_for(n_user, n_user, config)
        self.expand_after = expand_after
        self.max_frontier = max_frontier
        self._expanded: set[PlanChoice] = set()
        # Canonicalize: frontier identity is the bare leaf form, the
        # same value observe() is handed back as the round's
        # PlanChoice — so crediting always finds its plan.
        self._seed = PlanChoice.from_plan(seed_plan)
        self._add(self._seed)
        # Provisioning envelope: make the reachable maximum (widest
        # partition fan-out, QP ceiling) a real frontier member, so
        # candidates() — which sizes the aggregator's QP pool — covers
        # every plan the mutation walk can reach.
        n_max = 1 << (n_user.bit_length() - 1)
        self._add(replace(self._seed, n_transport=n_max,
                          n_qps=max(1, min(self.qp_cap, n_max))))

    # -- frontier plumbing ---------------------------------------------

    def _add(self, choice: PlanChoice) -> None:
        if choice in self._plays or len(self._plays) >= self.max_frontier:
            return
        choice.validate_for(self.n_user)
        self._add_arm(choice, rank=choice.plan.digest)

    def _expand(self, choice: PlanChoice) -> None:
        self._expanded.add(choice)
        for cand in neighbors(choice.plan, self.n_user, self.config,
                              deltas=self.deltas, qp_cap=self.qp_cap):
            self._add(PlanChoice.from_plan(cand))

    def _room_to_expand(self, best: PlanChoice) -> bool:
        return (best not in self._expanded
                and len(self._plays) < self.max_frontier)

    # -- Policy interface ----------------------------------------------

    def choose(self, round_no: int) -> PlanChoice:
        best = self.best()
        if (self._plays[best] >= self.expand_after
                and self._room_to_expand(best)):
            self._expand(best)
        return self._unplayed() or self._explore() or best

    @property
    def confident(self) -> bool:
        # An unexpanded incumbent still has neighbours nobody tried.
        return not self._room_to_expand(self.best()) and super().confident

    def plan_space_digest(self) -> str:
        """Identity of the reachable rewrite space (seed + move set).

        The frontier grows over time, so unlike the grid policies the
        space is identified by its generator: the seed plan's digest,
        the δ move set, and the QP ceiling.
        """
        spec = "|".join([
            "mutation", self._rank[self._seed], str(self.qp_cap),
            ",".join("none" if d is None else repr(float(d))
                     for d in self.deltas),
        ])
        return hashlib.sha256(spec.encode()).hexdigest()[:16]

    def describe(self) -> str:
        played = sum(1 for p in self._plays.values() if p)
        return (f"plan-mutation({played}/{len(self._plays)} plans "
                f"played, {len(self._expanded)} expanded)")
