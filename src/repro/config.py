"""Cost-model configuration for the simulated platform.

All virtual-time constants of the simulation live here, grouped per
subsystem.  The defaults (:data:`NIAGARA`) are calibrated to an
EDR-InfiniBand / ConnectX-5 / dual-socket-Skylake platform like the
Niagara supercomputer the paper evaluates on:

* EDR line rate 100 Gb/s, ~11.6 GiB/s effective payload bandwidth;
* ~1 us end-to-end small-message latency through a Dragonfly+ fabric;
* a single QP cannot saturate the line (inter-WQE pipeline stalls), a
  well-known ConnectX property the paper leans on in Fig. 7;
* at most 16 outstanding RDMA work requests per QP (Section IV-A);
* per-message software costs of the Open MPI + UCX baseline in the
  low-microsecond range, with the eager-bcopy / eager-zcopy /
  rendezvous switch points of UCX 1.12 (1 KiB and 8 KiB thresholds for
  the bcopy/zcopy switch the paper calls out in Section V-B2).

These are *shape* calibrations: the reproduction targets who-wins-where
and crossover locations, not the absolute microseconds of the authors'
testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from repro.errors import ConfigError
from repro.units import KiB, us, ns


@dataclass(frozen=True)
class NICConfig:
    """Simulated HCA (ConnectX-5-like) parameters."""

    #: Effective payload bandwidth of the link in bytes/second (EDR).
    line_rate: float = 11.6 * 1024**3
    #: Max injection rate of a single QP, bytes/second.  Slightly below
    #: line rate: a lone QP cannot quite saturate the wire (DMA-read
    #: pipeline stalls), which drives Fig. 7's QP effect.
    qp_rate: float = 0.85 * 11.6 * 1024**3
    #: Maximum transmission unit in bytes (the paper tunes at 4 KiB).
    mtu: int = 4 * KiB
    #: Physical ports (rails) on the HCA.  Each port is an independent
    #: wire: its own egress serializer and ingress pipe at the full
    #: line rate.  QPs bind a port at creation; the engine layer builds
    #: one :class:`~repro.engine.rail.Rail` per port, so a dual-port
    #: (2-rail) run is this one knob.
    n_ports: int = 1
    #: Engine time to fetch + parse one WQE and program the DMA.
    #: Pipelined with transmission of the previous WQE on the same QP.
    t_wqe: float = ns(150)
    #: Per-MTU-packet processing time on the engine.
    t_pkt: float = ns(10)
    #: Time to write a CQE and make it visible to the host.
    t_cqe: float = ns(150)
    #: Hardware limit on concurrently outstanding RDMA WRs per QP.
    max_outstanding_rdma: int = 16
    #: Total QPs supported (262,144 on ConnectX-5 per the paper).
    max_qps: int = 262_144
    #: Chunk size at which large WQEs timeshare the wire.  Large
    #: transmissions are broken into chunks so concurrent QPs interleave
    #: (approximates per-packet VL arbitration without per-packet events).
    wire_chunk: int = 256 * KiB
    #: Default RC transport-retry budget per QP (``IBV_QP_RETRY_CNT``):
    #: retransmissions after an ACK timeout before the WR completes with
    #: ``RETRY_EXC_ERR`` and the QP drops to ERROR.
    retry_cnt: int = 7
    #: Default RNR NAK retry budget per QP (``IBV_QP_RNR_RETRY``).  Per
    #: the IB spec the value 7 means retry forever.
    rnr_retry: int = 7
    #: Default local-ACK-timeout *exponent* per QP (``IBV_QP_TIMEOUT``):
    #: the first retransmission fires ``4.096 us x 2**qp_timeout`` after
    #: the message went on the wire, and each further retry doubles the
    #: wait — IB's exponential timeout semantics.
    qp_timeout: int = 4
    #: Time a requester backs off after an RNR NAK before retrying
    #: (models the ``IBV_QP_MIN_RNR_TIMER`` the responder advertises).
    rnr_timer: float = us(10)

    @property
    def ack_timeout(self) -> float:
        """Base local ACK timeout in seconds (4.096 us x 2^qp_timeout)."""
        return 4.096e-6 * (1 << self.qp_timeout)

    def validate(self) -> None:
        if self.line_rate <= 0 or self.qp_rate <= 0:
            raise ConfigError("rates must be positive")
        if self.qp_rate > self.line_rate:
            raise ConfigError("qp_rate cannot exceed line_rate")
        if self.mtu < 256:
            raise ConfigError(f"mtu too small: {self.mtu}")
        if self.n_ports < 1:
            raise ConfigError("n_ports must be >= 1")
        if self.max_outstanding_rdma < 1:
            raise ConfigError("max_outstanding_rdma must be >= 1")
        if self.wire_chunk < self.mtu:
            raise ConfigError("wire_chunk must be >= mtu")
        if min(self.t_wqe, self.t_pkt, self.t_cqe) < 0:
            raise ConfigError("times must be non-negative")
        if not (0 <= self.retry_cnt <= 7):
            raise ConfigError("retry_cnt must be a 3-bit value (0..7)")
        if not (0 <= self.rnr_retry <= 7):
            raise ConfigError("rnr_retry must be a 3-bit value (0..7)")
        if not (0 <= self.qp_timeout <= 31):
            raise ConfigError("qp_timeout must be a 5-bit exponent (0..31)")
        if self.rnr_timer < 0:
            raise ConfigError("rnr_timer must be non-negative")


@dataclass(frozen=True)
class LinkConfig:
    """Fabric propagation parameters (per one-way traversal)."""

    #: One-way propagation latency, cables + switch hops (Dragonfly+).
    latency: float = us(0.6)
    #: Extra one-way latency for intra-node (shared memory) transfers.
    loopback_latency: float = ns(200)

    def validate(self) -> None:
        if self.latency < 0 or self.loopback_latency < 0:
            raise ConfigError("latencies must be non-negative")


@dataclass(frozen=True)
class HostConfig:
    """Host CPU / software-path parameters."""

    #: Physical cores per node (Niagara: 40 Skylake cores).
    cores_per_node: int = 40
    #: CPU time for one ``ibv_post_send`` (WR build + doorbell MMIO).
    t_post: float = ns(300)
    #: CPU time for one ``ibv_poll_cq`` that returns a completion.
    t_poll_hit: float = ns(80)
    #: CPU time for one empty ``ibv_poll_cq``.
    t_poll_miss: float = ns(50)
    #: Serialized cost of one atomic add-and-fetch under contention
    #: (cache-line transfer across the dual-socket machine).  Drives
    #: arrival skew at high partition counts (paper Section V-C3 /
    #: Fig. 12) and is the common small-message cost that keeps the
    #: transport-partition count from mattering much below 8 KiB
    #: (Fig. 6).
    t_atomic: float = ns(150)
    #: Host memcpy bandwidth (bcopy protocol staging), bytes/second.
    memcpy_rate: float = 9.0 * 1024**3
    #: Multiplier on software costs when threads oversubscribe cores
    #: (128 threads on 40 cores in Fig. 8's 128-partition runs).
    oversubscription_penalty: float = 3.0

    def validate(self) -> None:
        if self.cores_per_node < 1:
            raise ConfigError("cores_per_node must be >= 1")
        if min(self.t_post, self.t_poll_hit, self.t_poll_miss, self.t_atomic) < 0:
            raise ConfigError("times must be non-negative")
        if self.memcpy_rate <= 0:
            raise ConfigError("memcpy_rate must be positive")
        if self.oversubscription_penalty < 1.0:
            raise ConfigError("oversubscription_penalty must be >= 1")


@dataclass(frozen=True)
class ProtocolCosts:
    """Per-message costs of one UCX protocol tier."""

    #: Protocol name (for traces and tests).
    name: str
    #: Sender-side CPU per message (protocol code on the calling thread).
    t_send: float
    #: Minimum spacing between successive injections through the stack
    #: (the LogGP ``g`` seen through MPI at this tier).
    gap: float
    #: Receiver progress-engine cost per message.
    t_recv: float
    #: Whether the payload is staged with a memcpy at the sender.
    copies: bool = False
    #: Whether an RTS/CTS handshake precedes the data.
    rendezvous: bool = False


@dataclass(frozen=True)
class UCXConfig:
    """Software cost model of the Open MPI + UCX baseline path.

    The ``part_persist`` module issues one internal point-to-point
    message per user partition through this stack.  Protocol selection
    by message size mirrors UCX 1.12 on EDR:

    * ``size <= inline_max``        -> inline/BlueFlame fast path (the
      small-message features the paper's native module deliberately
      does not use, Section IV-A);
    * ``size <= eager_bcopy_max``   -> eager/bcopy (staging copy);
    * ``size <= eager_zcopy_max``   -> eager/zcopy (no copy, costlier
      descriptor handling);
    * otherwise                     -> rendezvous (RTS/CTS handshake,
      then zero-copy RDMA).
    """

    #: Largest inline/BlueFlame message.
    inline_max: int = 256
    #: Largest eager/bcopy message (UCX switches at 1 KiB on this setup).
    eager_bcopy_max: int = 1 * KiB
    #: Largest eager/zcopy message before rendezvous.
    eager_zcopy_max: int = 8 * KiB
    t_inline: float = ns(150)
    gap_inline: float = ns(150)
    rx_inline: float = ns(100)
    t_eager_bcopy: float = ns(300)
    gap_bcopy: float = ns(400)
    rx_bcopy: float = ns(300)
    t_eager_zcopy: float = ns(600)
    gap_zcopy: float = ns(1000)
    rx_zcopy: float = ns(600)
    #: Rendezvous costs exclude the RTS/CTS round trip, charged as the
    #: handshake messages themselves.  Per-message rendezvous costs
    #: through MPI are in the low microseconds (matching, protocol
    #: dispatch, registration handling) — these are what partition
    #: aggregation amortizes in the paper's medium-message sweet spot.
    t_rndv: float = ns(2000)
    gap_rndv: float = ns(2000)
    rx_rndv: float = ns(1600)
    #: Data lanes (QPs) the endpoint stripes bulk messages across; UCX
    #: multi-path lets large transfers reach full line rate.
    n_lanes: int = 2

    @cached_property
    def _tiers(self) -> tuple:
        """The four protocol tiers, smallest first: constants of the
        config, built once (``protocol_for`` runs four times per
        baseline message)."""
        return (
            ProtocolCosts("inline", self.t_inline, self.gap_inline,
                          self.rx_inline),
            ProtocolCosts("eager-bcopy", self.t_eager_bcopy, self.gap_bcopy,
                          self.rx_bcopy, copies=True),
            ProtocolCosts("eager-zcopy", self.t_eager_zcopy, self.gap_zcopy,
                          self.rx_zcopy),
            ProtocolCosts("rndv", self.t_rndv, self.gap_rndv, self.rx_rndv,
                          rendezvous=True),
        )

    def protocol_for(self, nbytes: int) -> ProtocolCosts:
        """The protocol tier UCX selects for a message of ``nbytes``."""
        inline, bcopy, zcopy, rndv = self._tiers
        if nbytes <= self.inline_max:
            return inline
        if nbytes <= self.eager_bcopy_max:
            return bcopy
        if nbytes <= self.eager_zcopy_max:
            return zcopy
        return rndv

    def validate(self) -> None:
        if not (0 < self.inline_max <= self.eager_bcopy_max
                <= self.eager_zcopy_max):
            raise ConfigError("protocol thresholds must be ordered")
        times = (self.t_inline, self.gap_inline, self.rx_inline,
                 self.t_eager_bcopy, self.gap_bcopy, self.rx_bcopy,
                 self.t_eager_zcopy, self.gap_zcopy, self.rx_zcopy,
                 self.t_rndv, self.gap_rndv, self.rx_rndv)
        if min(times) < 0:
            raise ConfigError("times must be non-negative")
        if self.n_lanes < 1:
            raise ConfigError("n_lanes must be >= 1")


@dataclass(frozen=True)
class PartitionedConfig:
    """Tunables of the native-verbs partitioned module (Section IV)."""

    #: Default number of QPs when no aggregator overrides it.
    default_qps: int = 2
    #: delta for the timer-based aggregator, seconds (Section IV-D).
    timer_delta: float = us(35)
    #: Timer poll interval while a first-arriver sleeps on its flag.
    timer_poll: float = us(2)
    #: Per-WR receiver-side completion handling cost in the native
    #: module (cheaper than the UCX per-message path: no matching,
    #: no protocol dispatch — decode the immediate, set flags).
    t_rx_wr: float = ns(200)
    #: Back-off before a failed channel attempts its RESET -> INIT ->
    #: RTR -> RTS reconnect walk (models the out-of-band re-exchange).
    reconnect_delay: float = us(500)
    #: Consecutive per-edge failure events (retry exhaustions, deadline
    #: misses) that trip the edge's circuit breaker when a degradation
    #: ladder wraps the transport (:class:`repro.mpi.ladder.LadderSpec`).
    breaker_threshold: int = 3
    #: Clean rounds an edge must complete on a fallback rung before the
    #: ladder probes a promotion back toward the preferred transport.
    breaker_probation: int = 4
    #: Per-edge round deadline for the ladder's progress watchdog,
    #: seconds; a round finishing later counts as a breaker failure
    #: event.  ``None`` (the default) disables the watchdog entirely.
    watchdog_deadline: Optional[float] = None
    #: Wall deadline for one Start..Wait epoch (``wait_partitioned``),
    #: virtual seconds; overrunning it raises
    #: :class:`~repro.errors.EpochDeadlineError`.  ``None`` = off.
    epoch_deadline: Optional[float] = None

    def validate(self) -> None:
        if self.default_qps < 1:
            raise ConfigError("default_qps must be >= 1")
        if self.timer_delta < 0 or self.timer_poll <= 0:
            raise ConfigError("timer settings invalid")
        if self.t_rx_wr < 0:
            raise ConfigError("t_rx_wr must be non-negative")
        if self.reconnect_delay < 0:
            raise ConfigError("reconnect_delay must be non-negative")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_probation < 1:
            raise ConfigError("breaker_probation must be >= 1")
        if self.watchdog_deadline is not None and self.watchdog_deadline <= 0:
            raise ConfigError("watchdog_deadline must be positive or None")
        if self.epoch_deadline is not None and self.epoch_deadline <= 0:
            raise ConfigError("epoch_deadline must be positive or None")


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the transport engine (:mod:`repro.engine`)."""

    #: Backstop park time while a progress wait has no kick pending —
    #: guards against a missing notification path ever deadlocking a
    #: wait.  Completion queues kick the engine on every push, so this
    #: only bounds the rare conditions with no notification hook;
    #: keeping it long keeps idle waits cheap.
    idle_fallback: float = us(100)
    #: Completions drained per ``ibv_poll_cq`` batch in the router's
    #: canonical polling loop.
    poll_batch: int = 16

    def validate(self) -> None:
        if self.idle_fallback <= 0:
            raise ConfigError(
                f"idle_fallback must be positive, got {self.idle_fallback}")
        if self.poll_batch < 1:
            raise ConfigError("poll_batch must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level simulation configuration."""

    nic: NICConfig = field(default_factory=NICConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    host: HostConfig = field(default_factory=HostConfig)
    ucx: UCXConfig = field(default_factory=UCXConfig)
    part: PartitionedConfig = field(default_factory=PartitionedConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Root seed for all random streams.
    seed: int = 1
    #: Collect trace records (disable for large benchmark runs).
    trace_enabled: bool = False
    #: Allocate real numpy backing for message buffers.  Disable for
    #: huge sweeps where only timing matters.
    real_buffers: bool = True

    def validate(self) -> None:
        self.nic.validate()
        self.link.validate()
        self.host.validate()
        self.ucx.validate()
        self.part.validate()
        self.engine.validate()
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def with_changes(self, **kwargs) -> "ClusterConfig":
        """A copy with top-level fields replaced."""
        return replace(self, **kwargs)


#: Default calibration: Niagara-like EDR / ConnectX-5 / Skylake platform.
NIAGARA = ClusterConfig()

