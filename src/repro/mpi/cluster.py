"""The cluster: environment, fabric, ranks, partitioned matching."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.config import ClusterConfig, NIAGARA
from repro.errors import MatchingError
from repro.ib.fabric import Fabric
from repro.mpi.process import MPIProcess
from repro.mpi.request import PartitionedState, PrecvRequest, PsendRequest
from repro.sim.core import Environment
from repro.sim.monitor import Trace
from repro.sim.rng import RngStreams
from repro.units import us

#: Virtual time for the asynchronous QP exchange + RTR/RTS bring-up at
#: init (absorbed by warm-up rounds; Start polls for it on round one).
SETUP_DELAY = us(50)


class Cluster:
    """A set of MPI processes on a simulated fabric.

    >>> with Cluster(n_nodes=2) as cluster:
    ...     rank0, rank1 = cluster.ranks(2)
    ...     # drive programs with cluster.spawn(...) and cluster.run(),
    ...     # then read the results before the block ends
    """

    def __init__(self, n_nodes: int, config: Optional[ClusterConfig] = None,
                 topology=None):
        self.config = config if config is not None else NIAGARA
        self.config.validate()
        self.env = Environment()
        self.trace = Trace(enabled=self.config.trace_enabled)
        self.fabric = Fabric(self.env, self.config, self.trace,
                             topology=topology)
        for node in range(n_nodes):
            self.fabric.add_node(node)
        self.rngs = RngStreams(self.config.seed)
        self.processes: list[MPIProcess] = []
        #: Every partitioned module built on this cluster, ladder rungs
        #: included (each registers itself); :meth:`close` empties them.
        self.modules: list = []
        self._pending_partitioned: dict[tuple, deque] = {}

    # -- topology ------------------------------------------------------------

    def add_process(self, node_id: Optional[int] = None) -> MPIProcess:
        """Create the next rank (default: one rank per node, in order)."""
        rank = len(self.processes)
        if node_id is None:
            node_id = rank % self.fabric.n_nodes
        proc = MPIProcess(self, rank, node_id)
        self.processes.append(proc)
        return proc

    def ranks(self, n: int) -> list[MPIProcess]:
        """Create ``n`` processes (one per node round-robin)."""
        return [self.add_process() for _ in range(n)]

    def process_by_rank(self, rank: int) -> MPIProcess:
        if not (0 <= rank < len(self.processes)):
            raise MatchingError(f"no rank {rank} (world size "
                                f"{len(self.processes)})")
        return self.processes[rank]

    # -- execution --------------------------------------------------------------

    def spawn(self, generator):
        """Run a program (generator) as a simulation process."""
        return self.env.process(generator)

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.Environment.run`)."""
        return self.env.run(until=until)

    def close(self) -> None:
        """``MPI_Finalize``: free the simulation once its results are read.

        Shuts the environment down (every daemon closed, the queue
        dropped, nothing dispatched), then has each owner drop the
        tables that point back at it.  A finished cluster is otherwise
        one big reference cycle that waits for a full collection; after
        this it is freed by reference counting as soon as the caller
        lets go of it.  A closed cluster refuses to :meth:`run`.
        """
        self.env.close()
        for module in self.modules:
            module.close()
        for proc in self.processes:
            proc.close()
        self.modules.clear()
        self.processes.clear()
        self.fabric.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- partitioned matching -----------------------------------------------------

    def match_partitioned(self, req) -> None:
        """Match Psend/Precv inits by (src, dst, tag) in posted order.

        No wildcards (MPI Partitioned forbids them); counts and sizes
        are checked at match time, and the transport module is
        instantiated for the pair.
        """
        if isinstance(req, PsendRequest):
            key = (req.process.rank, req.peer, req.tag)
        else:
            key = (req.peer, req.process.rank, req.tag)
        queue = self._pending_partitioned.setdefault(key, deque())
        # Match with an opposite-kind entry, FIFO.
        for i, other in enumerate(queue):
            if other.kind != req.kind:
                del queue[i]
                self._complete_match(other, req)
                return
        queue.append(req)

    def _complete_match(self, a, b) -> None:
        send_req = a if isinstance(a, PsendRequest) else b
        recv_req = a if isinstance(a, PrecvRequest) else b
        if not (isinstance(send_req, PsendRequest)
                and isinstance(recv_req, PrecvRequest)):
            raise MatchingError("matched requests of the same kind")
        if send_req.total_bytes != recv_req.total_bytes:
            raise MatchingError(
                f"size mismatch: send {send_req.total_bytes}B vs "
                f"recv {recv_req.total_bytes}B")
        if send_req.n_partitions != recv_req.n_partitions:
            raise MatchingError(
                "this implementation requires equal sender and receiver "
                f"partition counts, got {send_req.n_partitions} vs "
                f"{recv_req.n_partitions}")
        if send_req.module_name != recv_req.module_name:
            raise MatchingError(
                f"module mismatch: {send_req.module_name} vs "
                f"{recv_req.module_name}")
        module = send_req.module_spec.create(self, send_req, recv_req)
        send_req.module = module
        recv_req.module = module
        env = self.env

        def setup_proc(env):
            # Asynchronous QP exchange / NIC bring-up (Section IV-A).
            yield SETUP_DELAY
            module.setup(send_req, recv_req)
            send_req.state = PartitionedState.INACTIVE
            recv_req.state = PartitionedState.INACTIVE
            send_req.ready_event.succeed(None)
            recv_req.ready_event.succeed(None)
            # Wake any rank already parked in Start.
            send_req.process.engine.kick()
            recv_req.process.engine.kick()

        env.process(setup_proc(env))

    def __repr__(self) -> str:
        return (f"<Cluster nodes={self.fabric.n_nodes} "
                f"ranks={len(self.processes)}>")
