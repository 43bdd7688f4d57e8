"""Fleet entry points: profiles, contended rankings, re-convergence.

Three layers of experiment sit on the tenant scheduler:

* :func:`run_fleet` — run a job mix on one shared routed fabric and
  return its :class:`~repro.fleet.profile.FleetProfile`;
  :func:`run_fleet_with_slowdowns` additionally runs every MPI job
  *alone* on an identical fabric and attaches per-job slowdown factors.
* :func:`run_contended_pair` — one cell of the fig08-style ranking
  table: a partitioned pair driven by one transport-module descriptor
  while ``level`` background-traffic tenants hammer the shared global
  link.  Level 0 is the same routed fabric with no neighbors, so the
  contended rankings are directly comparable to the quiet ones.
* :func:`run_reconvergence` — the live-autotuning probe: an autotuned
  pair runs for ``quiet + congested + tail`` rounds while a noisy
  neighbor arrives at round ``quiet`` and departs at
  ``quiet + congested``; the controller's per-round trajectory is
  folded into re-convergence rounds and regret.

Everything here is purely a function of its arguments (seeded RNG, no
wall clock), which is what lets ``ext_fleet`` shard points across the
``exp`` process pool with byte-identical serial/parallel results.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import ClusterConfig
from repro.fleet.profile import FleetProfile, attach_slowdowns
from repro.fleet.spec import JobSpec
from repro.fleet.tenancy import TAG_STRIDE, TenantScheduler
from repro.fleet.traffic import TrafficSpec
from repro.ib.topology import RoutedDragonflyPlus
from repro.mem.buffer import Buffer
from repro.units import KiB, ms, us


#: The noisy neighbor of :func:`run_reconvergence`: node pairs, the
#: closed-loop streams each runs per direction, and their message size.
NEIGHBOR_PAIRS, NEIGHBOR_STREAMS, NEIGHBOR_NBYTES = 2, 4, 256 * KiB
#: A plan within this fraction of the congested-best mean is near-optimal.
NEAR_OPTIMAL = 0.05
#: Consecutive near-optimal rounds that count as re-converged.
HOLD_ROUNDS = 3


def default_topology() -> RoutedDragonflyPlus:
    """The fleet test fabric: 2 groups, 2 leaves/group, 2 nodes/leaf."""
    return RoutedDragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                               groups=2)


def background_jobs(level: int, seed: int = 0,
                    nbytes: int = 256 * KiB,
                    period: float = us(30),
                    horizon: float = ms(4)) -> list[JobSpec]:
    """``level`` permutation-traffic tenants (2 nodes each).

    Placed with the ``spread`` policy after a cross-group pair, each
    tenant straddles the global links, so every level adds one more
    continuous contender on the spine.
    """
    return [
        JobSpec(name=f"bg{i}", kind="traffic", n_ranks=2,
                traffic=TrafficSpec(kind="permutation", nbytes=nbytes,
                                    period=period, horizon=horizon,
                                    seed=seed * 101 + i))
        for i in range(level)
    ]


def run_fleet(jobs: list[JobSpec], topology=None, placement: str = "packed",
              seed: int = 0, config: Optional[ClusterConfig] = None
              ) -> FleetProfile:
    """Run a job mix on one shared routed fabric."""
    topology = topology if topology is not None else default_topology()
    scheduler = TenantScheduler(jobs, topology, config=config,
                                placement=placement, seed=seed)
    return scheduler.run()


def isolated_baselines(jobs: list[JobSpec], topology=None,
                       placement: str = "packed", seed: int = 0,
                       config: Optional[ClusterConfig] = None
                       ) -> dict[str, float]:
    """Mean iteration time of every MPI job run *alone* on the fabric.

    Each job keeps the node set it has in the combined run (the full
    job list is placed, then all but one tenant are dropped), so the
    comparison isolates contention, not placement.
    """
    topology = topology if topology is not None else default_topology()
    from repro.fleet.spec import place_jobs

    placement_map = place_jobs(jobs, topology, placement, seed)
    baselines: dict[str, float] = {}
    for job in jobs:
        if job.kind == "traffic":
            continue
        solo = TenantScheduler(
            [job], topology, config=config, placement=placement, seed=seed,
            placement_map={job.name: placement_map[job.name]})
        profile = solo.run()
        mean = profile.tenants[job.name].mean_iteration
        if mean is not None:
            baselines[job.name] = mean
    return baselines


def run_fleet_with_slowdowns(jobs: list[JobSpec], topology=None,
                             placement: str = "packed", seed: int = 0,
                             config: Optional[ClusterConfig] = None
                             ) -> FleetProfile:
    """The combined run plus per-job slowdowns vs isolated baselines."""
    topology = topology if topology is not None else default_topology()
    profile = run_fleet(jobs, topology, placement, seed, config)
    baselines = isolated_baselines(jobs, topology, placement, seed, config)
    attach_slowdowns(profile, baselines)
    profile.meta["isolated_baselines"] = dict(baselines)
    return profile


# -- contended ranking (fig08 under congestion) -------------------------


def run_contended_pair(module=("persist",), level: int = 0,
                       n_partitions: int = 16,
                       partition_size: int = 64 * KiB,
                       iterations: int = 6, warmup: int = 2,
                       compute: float = 0.0, seed: int = 0,
                       config: Optional[ClusterConfig] = None) -> dict:
    """One ranking cell: a partitioned pair at one contention level.

    The pair lands cross-group (spread placement), the ``level``
    background tenants cross the same global links.  Returns the mean
    iteration time plus the profile's contention evidence.
    """
    jobs = [JobSpec(name="mpi", kind="pair", n_ranks=2,
                    n_partitions=n_partitions,
                    partition_size=partition_size,
                    iterations=iterations, warmup=warmup, compute=compute,
                    module=module)]
    jobs += background_jobs(level, seed=seed + 1)
    profile = run_fleet(jobs, placement="spread", seed=seed, config=config)
    view = profile.tenants["mpi"]
    spine = {name: stats["utilization"]
             for name, stats in profile.links.items()
             if name.startswith("global")}
    return {
        "mean_time": view.mean_iteration,
        "iteration_times": view.iteration_times,
        "total_bytes": n_partitions * partition_size,
        "level": level,
        "spine_utilization": max(spine.values()) if spine else 0.0,
        "makespan": profile.makespan,
    }


# -- live autotuner re-convergence --------------------------------------


def _plan_key(round_rec: dict) -> tuple:
    return (round_rec["n_transport"], round_rec["n_qps"],
            round_rec["delta"])


def _best_plan(rounds: list[dict]) -> tuple[Optional[tuple], dict]:
    """The plan with the lowest mean completion over ``rounds``."""
    by_plan: dict[tuple, list[float]] = {}
    for rec in rounds:
        if rec["completion_time"] is None or rec.get("quarantined"):
            continue
        by_plan.setdefault(_plan_key(rec), []).append(
            rec["completion_time"])
    means = {plan: float(np.mean(times)) for plan, times in by_plan.items()}
    if not means:
        return None, {}
    return min(means, key=means.get), means


def _plan_means_table(means: dict) -> list:
    """JSON-safe ``[[plan_triple, mean], ...]`` sorted by plan."""
    def key(plan):
        return (plan[0], plan[1], -1.0 if plan[2] is None else plan[2])

    return [[list(plan), means[plan]] for plan in sorted(means, key=key)]


def run_reconvergence(autotune_params: dict,
                      quiet_rounds: int = 14,
                      congested_rounds: int = 30,
                      tail_rounds: int = 8,
                      n_partitions: int = 16,
                      partition_size: int = 64 * KiB,
                      compute: float = 0.0,
                      seed: int = 0,
                      config: Optional[ClusterConfig] = None) -> dict:
    """Drive an autotuned pair through a noisy-neighbor episode.

    The neighbor — :data:`NEIGHBOR_PAIRS` cross-group node pairs, each
    running :data:`NEIGHBOR_STREAMS` concurrent closed-loop message
    streams (send :data:`NEIGHBOR_NBYTES`, await delivery, repeat) in
    both directions — arrives at round ``quiet_rounds`` and departs at
    ``quiet_rounds + congested_rounds``.  Closed-loop streams are the
    stationary way to congest a link: open-loop pacing above line rate
    grows the queue without bound (every round slower than the last,
    so no plan comparison is meaningful), while ``k`` closed-loop
    streams hold a bounded ``~k``-message standing queue on the shared
    spine links indefinitely.  The stream count sets how deep that
    standing queue is; these constants congest the spine enough that
    aggregation into fewer, larger messages beats the quiet-best wide
    layout (the regime :func:`run_contended_pair` reaches at level 2).
    Returns the per-round trajectory plus the re-convergence summary:
    quiet-best and congested-best plans, rounds to re-converge after
    arrival (first congested round starting :data:`HOLD_ROUNDS`
    consecutive rounds on *near-optimal* plans — within
    :data:`NEAR_OPTIMAL` of the congested-best mean), and the cumulative
    regret vs always playing the congested-best plan.
    """
    from repro.autotune import build_autotuner

    total = quiet_rounds + congested_rounds + tail_rounds
    arrive, depart = quiet_rounds, quiet_rounds + congested_rounds
    agg = build_autotuner(dict(autotune_params))
    job = JobSpec(name="mpi", kind="pair", n_ranks=2,
                  n_partitions=n_partitions, partition_size=partition_size,
                  iterations=total, warmup=0, compute=compute)
    topology = default_topology()
    scheduler = TenantScheduler([job], topology, config=config,
                                placement="spread", seed=seed,
                                module_overrides={"mpi": agg})
    env = scheduler.cluster.env
    # Neighbor endpoints: with spread placement the pair sits on nodes
    # (0, groups*leaves... ) — pick the next spread slots so the
    # neighbor crosses the same global links on different leaves.
    pair_nodes = set(scheduler.placement["mpi"])
    per_group = topology.nodes_per_group
    spread_order = [g * per_group + i for i in range(per_group)
                    for g in range(topology.groups)]
    free = [n for n in spread_order if n not in pair_nodes]
    endpoints = [(scheduler.cluster.add_process(node_id=free[2 * i]),
                  scheduler.cluster.add_process(node_id=free[2 * i + 1]))
                 for i in range(NEIGHBOR_PAIRS)]

    state = {"round": 0}
    arrive_ev = env.event()

    def hook(_job_name, round_no):
        state["round"] = round_no
        if round_no == arrive and not arrive_ev.triggered:
            arrive_ev.succeed(None)

    scheduler.round_hooks.append(hook)

    def stream(tx, rx_proc, base_tag):
        yield arrive_ev
        i = 0
        while state["round"] < depart:
            done = env.event()
            tag = base_tag + i

            def rx(done=done, tag=tag):
                buf = Buffer(NEIGHBOR_NBYTES, backed=False)
                yield from rx_proc.recv(buf, source=tx.rank, tag=tag)
                done.succeed(None)

            env.process(rx())
            sbuf = Buffer(NEIGHBOR_NBYTES, backed=False)
            yield from tx.send(sbuf, dest=rx_proc.rank, tag=tag)
            yield done
            i += 1

    loop = 0
    for a, b in endpoints:
        for tx, rx_proc in ((a, b), (b, a)):
            for _ in range(NEIGHBOR_STREAMS):
                scheduler.cluster.spawn(
                    stream(tx, rx_proc, TAG_STRIDE * (91 + loop)))
                loop += 1
    with scheduler.cluster:
        scheduler.launch()
        scheduler.cluster.run()

    controller = agg.controller
    rounds = controller.round_plans() if controller is not None else []
    quiet = [r for r in rounds if r["round"] < arrive]
    # The arrival round itself is mixed-regime — the neighbor starts
    # sending mid-round, so it usually completes at quiet speed.  Keep
    # it out of the congested statistics (it would credit whatever
    # plan happened to run it with a spuriously fast congested
    # sample).
    congested = [r for r in rounds if arrive < r["round"] < depart]
    quiet_best, quiet_means = _best_plan(quiet)
    congested_best, congested_means = _best_plan(congested)
    plan_changed = (quiet_best is not None and congested_best is not None
                    and quiet_best != congested_best)
    # Re-convergence is judged against the *near-optimal set*: every
    # plan whose congested mean is within NEAR_OPTIMAL of the best.
    # Congestion ties plans that differ only on quiet-path knobs (QP
    # fan-out), and a tuner toggling between statistical ties has
    # re-converged in every meaningful sense.
    reconverged_round = None
    good_plans: set = set()
    if congested_best is not None:
        cutoff = congested_means[congested_best] * (1 + NEAR_OPTIMAL)
        good_plans = {plan for plan, mean in congested_means.items()
                      if mean <= cutoff}
        run_len = 0
        for rec in congested:
            if _plan_key(rec) in good_plans:
                run_len += 1
                if run_len >= HOLD_ROUNDS:
                    reconverged_round = rec["round"] - (HOLD_ROUNDS - 1)
                    break
            else:
                run_len = 0
    regret = None
    if congested_best is not None:
        base = congested_means[congested_best]
        regret = float(sum(rec["completion_time"] - base
                           for rec in congested
                           if rec["completion_time"] is not None))
    return {
        "rounds": rounds,
        "arrive_round": arrive,
        "depart_round": depart,
        "neighbor": {"pairs": NEIGHBOR_PAIRS, "nbytes": NEIGHBOR_NBYTES,
                     "streams": NEIGHBOR_STREAMS},
        "quiet_plan_means": _plan_means_table(quiet_means),
        "congested_plan_means": _plan_means_table(congested_means),
        "quiet_best": list(quiet_best) if quiet_best else None,
        "congested_best": list(congested_best) if congested_best else None,
        "quiet_best_time": (quiet_means.get(quiet_best)
                            if quiet_best else None),
        "congested_best_time": (congested_means.get(congested_best)
                                if congested_best else None),
        "near_optimal_plans": [list(plan) for plan in
                               sorted(good_plans,
                                      key=lambda p: congested_means[p])],
        "plan_changed": plan_changed,
        "reconverged_round": reconverged_round,
        "rounds_to_reconverge": (reconverged_round - arrive
                                 if reconverged_round is not None else None),
        "regret": regret,
        # Adapted = the congested optimum differs from the quiet one
        # (the quiet-best plan is not even near-optimal under load) AND
        # the tuner settled into the near-optimal set.
        "adapted": (plan_changed and reconverged_round is not None
                    and quiet_best not in good_plans),
    }
