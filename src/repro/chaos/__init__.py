"""Chaos runs: property-based fault injection with invariants.

The chaos layer closes the robustness loop the fault model opened:

* :mod:`repro.chaos.generators` — seeded, replayable randomized
  :class:`~repro.faults.FaultSchedule` generators (flap storms,
  correlated rail failures, RNR bursts, latency-spike trains);
* :mod:`repro.chaos.workloads` — the workload table (halo exchange,
  tree allreduce/broadcast, a two-tenant fleet) run with backed buffers
  and per-iteration byte verification, and :func:`run_chaos`, one run
  as the ``chaos`` point kind of :mod:`repro.exp.kinds`;
* :mod:`repro.chaos.invariants` — the post-run checks every run must
  pass: completion, byte integrity, exactly-once accounting, no
  leaked transport state, bounded virtual time.

A campaign is the ``ext_chaos`` row of :mod:`repro.exp.experiments`
(``repro-bench chaos`` or ``bench run ext_chaos``); see
``docs/FAULTS.md`` for the campaign model and the degradation ladder
the campaigns exercise.
"""

from repro.chaos.generators import (
    KINDS,
    generate_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.chaos.invariants import RunReport, check_invariants
from repro.chaos.workloads import NATIVE, WORKLOADS, chaos_config, run_chaos

__all__ = [
    "KINDS",
    "NATIVE",
    "WORKLOADS",
    "RunReport",
    "chaos_config",
    "check_invariants",
    "generate_schedule",
    "run_chaos",
    "schedule_from_dict",
    "schedule_to_dict",
]
