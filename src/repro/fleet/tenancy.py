"""The tenant scheduler: many jobs, one routed fabric, one clock.

:class:`TenantScheduler` builds a single :class:`~repro.mpi.Cluster`
over a routed topology, places every :class:`~repro.fleet.spec.JobSpec`
on a disjoint node set, and drives all tenants concurrently — MPI jobs
through the real partitioned stack (psend/precv channels, worker teams,
per-job barriers) and traffic tenants by replaying their seeded offered
load through real sends.  Everything shares the link graph, so tenants
contend exactly where their routes overlap.

Job drivers are *job-relative*: ranks inside a driver are indices into
the job's own process list, mapped to global cluster ranks only at the
psend/precv boundary.  Tags are partitioned per job
(``job_index * TAG_STRIDE``) so tenant channels can never match across
jobs even if node pairs collide.
"""

from __future__ import annotations

from typing import Optional

from repro.coll.tree import _binomial_children, _binomial_parent
from repro.config import ClusterConfig, NIAGARA
from repro.core.module import spec_for
from repro.errors import ConfigError
from repro.fleet.profile import FleetProfile, collect_tenant_views
from repro.fleet.spec import JobSpec, place_jobs
from repro.fleet.traffic import offered_load
from repro.mem.buffer import Buffer, PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, NoNoise, WorkerTeam
from repro.runtime.rounds import spawn_rounds

#: Tag space reserved per job (channels + one tag per traffic event).
TAG_STRIDE = 100_000


class TenantScheduler:
    """Places and runs a set of jobs on one shared routed fabric."""

    def __init__(self, jobs: list[JobSpec], topology,
                 config: Optional[ClusterConfig] = None,
                 placement: str = "packed", seed: int = 0,
                 module_overrides: Optional[dict] = None,
                 placement_map: Optional[dict] = None):
        if not getattr(topology, "routed", False):
            raise ConfigError(
                "the fleet needs a routed topology (links to contend on)")
        self.jobs = list(jobs)
        self.topology = topology
        self.config = (config if config is not None
                       else NIAGARA).with_changes(seed=int(seed))
        self.placement_policy = placement
        self.seed = int(seed)
        #: Explicit ``{name: [node, ...]}`` beats the policy (used to
        #: pin isolated-baseline runs to their combined-run nodes).
        self.placement = (dict(placement_map) if placement_map is not None
                          else place_jobs(self.jobs, topology, placement,
                                          seed))
        self.cluster = Cluster(n_nodes=topology.n_nodes, config=self.config,
                               topology=topology)
        #: ``{job.name: [MPIProcess, ...]}`` in job-relative rank order.
        self.procs: dict[str, list] = {}
        for job in self.jobs:
            self.procs[job.name] = [
                self.cluster.add_process(node_id=node)
                for node in self.placement[job.name]]
        #: Live module/aggregator per job (overrides beat descriptors —
        #: used by the re-convergence driver to inject an autotuner).
        self._modules = {}
        overrides = module_overrides or {}
        for job in self.jobs:
            if job.kind == "traffic":
                continue
            if job.name in overrides:
                self._modules[job.name] = overrides[job.name]
            else:
                from repro.exp.modules import build_module

                self._modules[job.name] = build_module(job.module)
        #: Per job: its :class:`~repro.runtime.RoundClock` (traffic
        #: tenants: a delivered/events count dict).
        self._records: dict = {}
        #: Per-round hooks ``fn(job_name, round_no)`` fired at each
        #: job barrier release (drives neighbor arrival/departure).
        self.round_hooks: list = []

    # -- drivers ----------------------------------------------------------

    def _team_for(self, job: JobSpec, rank: int) -> WorkerTeam:
        return WorkerTeam.on(self.cluster, job.n_partitions,
                             f"noise.{job.name}.rank{rank}")

    def _spawn_rounds(self, job: JobSpec, setup) -> None:
        """Run ``job`` on the shared round loop; its clock is the record."""
        def fire_hooks(round_no):
            for hook in self.round_hooks:
                hook(job.name, round_no)

        self._records[job.name] = spawn_rounds(
            self.cluster, self.procs[job.name], job.iterations, job.warmup,
            setup, fire_hooks)

    def _drive_pair(self, job: JobSpec, tag_base: int) -> None:
        procs = self.procs[job.name]
        if len(procs) != 2:
            raise ConfigError(f"pair job {job.name} needs exactly 2 ranks")
        module = self._modules[job.name]
        phase = ComputePhase(compute=job.compute, noise=NoNoise())

        def setup(r, proc):
            buf = PartitionedBuffer(job.n_partitions, job.partition_size,
                                    backed=False)
            peer = procs[1 - r].rank
            if r == 0:
                req = proc.psend_init(buf, dest=peer, tag=tag_base,
                                      module=spec_for(module))
                team = self._team_for(job, 0)
            else:
                req = proc.precv_init(buf, source=peer, tag=tag_base,
                                      module=spec_for(module))

            def one_round(it):
                yield from proc.start(req)
                if r == 0:
                    yield team.run_round(
                        phase, lambda tid: proc.pready(req, tid))
                yield from proc.wait_partitioned(req)

            return one_round

        self._spawn_rounds(job, setup)

    def _drive_halo(self, job: JobSpec, tag_base: int) -> None:
        """Bidirectional ring halo: every rank exchanges with both
        neighbors every iteration (the 1-D stencil pattern)."""
        procs = self.procs[job.name]
        world = len(procs)
        module = self._modules[job.name]
        phase = ComputePhase(compute=job.compute, noise=NoNoise())

        def setup(r, proc):
            right, left = (r + 1) % world, (r - 1) % world
            mk = lambda: PartitionedBuffer(  # noqa: E731
                job.n_partitions, job.partition_size, backed=False)
            # Tags: +0 clockwise (to right), +1 counter-clockwise.
            send_r = proc.psend_init(mk(), dest=procs[right].rank,
                                     tag=tag_base, module=spec_for(module))
            send_l = proc.psend_init(mk(), dest=procs[left].rank,
                                     tag=tag_base + 1,
                                     module=spec_for(module))
            recv_l = proc.precv_init(mk(), source=procs[left].rank,
                                     tag=tag_base, module=spec_for(module))
            recv_r = proc.precv_init(mk(), source=procs[right].rank,
                                     tag=tag_base + 1,
                                     module=spec_for(module))
            team = self._team_for(job, r)

            def body(tid):
                yield from proc.pready(send_r, tid)
                yield from proc.pready(send_l, tid)

            def one_round(it):
                for req in (recv_l, recv_r, send_r, send_l):
                    yield from proc.start(req)
                yield team.run_round(phase, body)
                for req in (send_r, send_l, recv_l, recv_r):
                    yield from proc.wait_partitioned(req)

            return one_round

        self._spawn_rounds(job, setup)

    def _drive_tree(self, job: JobSpec, tag_base: int) -> None:
        """Binomial fan-in reduce: leaves push up, parents forward after
        every child arrives (the pallreduce up-sweep)."""
        procs = self.procs[job.name]
        world = len(procs)
        module = self._modules[job.name]
        phase = ComputePhase(compute=job.compute, noise=NoNoise())
        mk = lambda: PartitionedBuffer(  # noqa: E731
            job.n_partitions, job.partition_size, backed=False)

        def setup(r, proc):
            up = None
            if r > 0:
                parent = procs[_binomial_parent(r, 0, world)]
                up = proc.psend_init(mk(), dest=parent.rank,
                                     tag=tag_base + r,
                                     module=spec_for(module))
            down = [proc.precv_init(mk(), source=procs[c].rank,
                                    tag=tag_base + c, module=spec_for(module))
                    for c in _binomial_children(r, 0, world)]
            team = self._team_for(job, r)

            def one_round(it):
                for req in down:
                    yield from proc.start(req)
                if up is not None:
                    yield from proc.start(up)
                for req in down:
                    yield from proc.wait_partitioned(req)
                if up is not None:
                    yield team.run_round(
                        phase, lambda tid: proc.pready(up, tid))
                    yield from proc.wait_partitioned(up)

            return one_round

        self._spawn_rounds(job, setup)

    def _drive_traffic(self, job: JobSpec, tag_base: int) -> None:
        """Replay the seeded offered load through real sends."""
        procs = self.procs[job.name]
        nodes = self.placement[job.name]
        rank_of = {node: proc.rank for node, proc in zip(nodes, procs)}
        proc_of = {node: proc for node, proc in zip(nodes, procs)}
        events = offered_load(job.traffic, nodes)
        env = self.cluster.env
        rec = self._records[job.name] = {
            "events": len(events), "delivered": 0, "done": 0}

        def one_flow(src, dst, nbytes, tag):
            sbuf = Buffer(nbytes, backed=False)
            rbuf = Buffer(nbytes, backed=False)

            def tx(proc=proc_of[src]):
                yield from proc.send(sbuf, dest=rank_of[dst], tag=tag)

            def rx(proc=proc_of[dst]):
                yield from proc.recv(rbuf, source=rank_of[src], tag=tag)
                rec["delivered"] += 1

            self.cluster.spawn(tx())
            self.cluster.spawn(rx())

        def driver():
            for i, (t, src, dst, nbytes) in enumerate(events):
                if t > env.now:
                    yield t - env.now
                one_flow(src, dst, nbytes, tag_base + i)
            rec["done"] = 1

        self.cluster.spawn(driver())

    # -- execution --------------------------------------------------------

    def launch(self) -> None:
        """Spawn every tenant's driver (does not advance the clock)."""
        drivers = {"pair": self._drive_pair, "halo": self._drive_halo,
                   "tree": self._drive_tree, "traffic": self._drive_traffic}
        for i, job in enumerate(self.jobs):
            drivers[job.kind](job, i * TAG_STRIDE)

    def run(self) -> FleetProfile:
        """Launch all tenants, run to completion, roll up the profile."""
        with self.cluster:
            self.launch()
            self.cluster.run()
            makespan = self.cluster.env.now
            records = {}
            for job in self.jobs:
                rec = self._records[job.name]
                if job.kind == "traffic":
                    if rec["delivered"] != rec["events"]:
                        raise AssertionError(
                            f"traffic job {job.name}: {rec['delivered']}/"
                            f"{rec['events']} flows delivered")
                    records[job.name] = {"iterations": [],
                                         "total_time": makespan}
                    continue
                if rec.done != len(self.procs[job.name]):
                    raise AssertionError(f"job {job.name} did not complete")
                records[job.name] = {
                    "iterations": rec.times(),
                    "total_time": float(rec.finish.max() - rec.start[0]),
                }
            profile = FleetProfile(
                makespan=makespan,
                links=self.cluster.fabric.link_stats(makespan),
                tenants=collect_tenant_views(
                    self.cluster, self.jobs, self.placement, records),
                meta={
                    "topology": self.topology.describe(),
                    "placement": self.placement_policy,
                    "seed": self.seed,
                    "n_jobs": len(self.jobs),
                    "placement_map": {name: list(nodes) for name, nodes
                                      in self.placement.items()},
                })
        return profile
