"""The closed loop: plan a round, watch it run, plan the next one.

An :class:`AutotuneController` sits between the native module and a
:class:`~repro.autotune.policy.Policy`.  The module asks it for a
:class:`~repro.autotune.policy.PlanChoice` at the top of every round
(``plan_for_round``) and hands back an
:class:`~repro.autotune.observe.IterationObservation` when the previous
round's timings are known (``observe``).  The controller keeps the
per-round history, feeds the arrival tracker and the policy, and — when
the policy declares itself confident — commits the current best plan to
a :class:`~repro.autotune.store.TuningStore` so the next *process* can
start converged (round trips across runs).

When the store already holds an entry for the workload, the controller
pins it: every round replays the stored plan, no exploration happens,
and the run behaves like a statically tuned one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.autotune.observe import ArrivalTracker, IterationObservation
from repro.autotune.policy import PlanChoice, Policy
from repro.autotune.store import PlanStore


@dataclass
class RoundRecord:
    """One round as the controller saw it."""

    round: int
    choice: PlanChoice
    #: Whether the choice was held over (recovery) or store-pinned.
    held: bool = False
    completion_time: Optional[float] = None
    #: Whether the round's observation was quarantined (overlapped a
    #: fault-recovery window) and kept out of the policy statistics.
    quarantined: bool = False


class AutotuneController:
    """Per-request closed-loop tuner (one instance per persistent request)."""

    def __init__(self, policy: Policy,
                 tracker: Optional[ArrivalTracker] = None,
                 store: Optional[PlanStore] = None,
                 store_key: Optional[dict] = None,
                 store_meta: Optional[dict] = None):
        if store is not None and store_key is None:
            raise ValueError("a store requires a store_key")
        self.policy = policy
        self.tracker = tracker if tracker is not None else ArrivalTracker()
        self.store = store
        self.store_key = store_key
        self.store_meta = store_meta or {}
        self.history: list[RoundRecord] = []
        self._by_round: dict[int, RoundRecord] = {}
        self._committed: Optional[PlanChoice] = None
        #: Plan pinned from a previous run's store entry (no exploration).
        self.pinned: Optional[PlanChoice] = None
        if store is not None:
            self.pinned = store.get(store_key)

    # -- planning side -------------------------------------------------

    def plan_for_round(self, round_no: int, hold: bool = False) -> PlanChoice:
        """The plan to apply for ``round_no`` (idempotent per round).

        ``hold=True`` repeats the previous round's choice — the module
        raises it while fault recovery or replay is pending, so the
        tuner never flips the layout under a half-replayed round.
        """
        record = self._by_round.get(round_no)
        if record is not None:
            return record.choice
        if self.pinned is not None:
            choice, held = self.pinned, True
        elif hold and self.history:
            choice, held = self.history[-1].choice, True
        else:
            choice, held = self.policy.choose(round_no), False
        record = RoundRecord(round=round_no, choice=choice, held=held)
        self.history.append(record)
        self._by_round[round_no] = record
        return choice

    # -- observation side ----------------------------------------------

    def observe(self, obs: IterationObservation) -> None:
        """Credit a completed round's observation to its choice.

        Tainted observations (round overlapped a fault-recovery
        window) are quarantined: the completion time is recorded on
        the round for diagnostics, but neither the arrival tracker nor
        the policy sees it — a fault must not poison an arm's score.
        """
        record = self._by_round.get(obs.round)
        if record is None:
            return
        record.completion_time = obs.completion_time
        if obs.tainted:
            record.quarantined = True
            return
        self.tracker.observe(obs.pready_times)
        self.policy.observe(record.choice, obs, self.tracker)
        self._maybe_commit()

    def _maybe_commit(self) -> None:
        if self.store is None or self.pinned is not None:
            return
        if not self.policy.confident:
            return
        best = self.policy.best()
        if best == self._committed:
            return
        meta = dict(self.store_meta)
        meta["rounds_observed"] = sum(
            1 for r in self.history if r.completion_time is not None)
        meta["policy"] = self.policy.describe()
        plan_ir = best.plan
        meta["plan_ir"] = plan_ir.text
        meta["plan_digest"] = plan_ir.digest
        self.store.put(self.store_key, best, meta=meta)
        self._committed = best

    # -- diagnostics ---------------------------------------------------

    @property
    def best_choice(self) -> PlanChoice:
        return self.pinned if self.pinned is not None else self.policy.best()

    @property
    def explored(self) -> bool:
        """True when more than one distinct plan was applied."""
        return len({r.choice for r in self.history}) > 1

    @property
    def converged_round(self) -> Optional[int]:
        """First round of the trailing run of identical choices.

        None until at least one round has been planned.
        """
        if not self.history:
            return None
        final = self.history[-1].choice
        start = self.history[-1].round
        for record in reversed(self.history):
            if record.choice != final:
                break
            start = record.round
        return start

    def mean_time_of(self, choice: PlanChoice) -> Optional[float]:
        """Observed mean completion time of ``choice`` across rounds."""
        times = [r.completion_time for r in self.history
                 if r.choice == choice and r.completion_time is not None
                 and not r.quarantined]
        if not times:
            return None
        return sum(times) / len(times)

    def round_plans(self) -> list[dict]:
        """JSON-friendly per-round history (for experiment results)."""
        return [
            {"round": r.round, "held": r.held,
             "completion_time": r.completion_time,
             "quarantined": r.quarantined, **r.choice.as_dict()}
            for r in self.history
        ]
