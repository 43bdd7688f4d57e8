"""repro: MPI Partitioned aggregation over (simulated) InfiniBand verbs.

A reproduction of "A Dynamic Network-Native MPI Partitioned Aggregation
Over InfiniBand Verbs" (CLUSTER 2023).  The hardware substrate — EDR
InfiniBand, ConnectX-5-class NICs, multi-threaded hosts — is a
discrete-event simulation; everything above it (verbs objects, the MPI
runtime, the partitioned transport modules, the aggregators, the
benchmarks) is a faithful software reconstruction of the paper's
design.

Quick start::

    from repro import Cluster, PartitionedBuffer, NativeSpec, PLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP

    cluster = Cluster(n_nodes=2)
    sender, receiver = cluster.ranks(2)
    spec = lambda: NativeSpec(PLogGPAggregator(NIAGARA_LOGGP, delay=4e-3))
    ...  # see examples/quickstart.py

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.config import (
    ClusterConfig,
    HostConfig,
    LinkConfig,
    NICConfig,
    NIAGARA,
    PartitionedConfig,
    UCXConfig,
)
from repro.mem import Buffer, PartitionedBuffer
from repro.mpi import Cluster, MPIProcess
from repro.mpi.persist_module import PersistSpec
from repro.core import (
    FixedAggregation,
    NativeSpec,
    NoAggregation,
    PLogGPAggregator,
    TimerPLogGPAggregator,
    TuningTable,
    TuningTableAggregator,
)
from repro.model import LogGPParams, LogGPTable
from repro.runtime import (
    ComputePhase,
    NoNoise,
    SingleThreadDelay,
    UniformNoise,
    WorkerTeam,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "MPIProcess",
    "Buffer",
    "PartitionedBuffer",
    "PersistSpec",
    "NativeSpec",
    "FixedAggregation",
    "NoAggregation",
    "PLogGPAggregator",
    "TimerPLogGPAggregator",
    "TuningTable",
    "TuningTableAggregator",
    "LogGPParams",
    "LogGPTable",
    "ClusterConfig",
    "NICConfig",
    "LinkConfig",
    "HostConfig",
    "UCXConfig",
    "PartitionedConfig",
    "NIAGARA",
    "WorkerTeam",
    "ComputePhase",
    "NoNoise",
    "SingleThreadDelay",
    "UniformNoise",
    "__version__",
]
