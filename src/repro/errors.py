"""Exception hierarchy for the repro package.

Every layer of the stack raises subclasses of :class:`ReproError`, so a
caller can catch a single type at an API boundary while tests can assert
on precise failure modes.  The IB layer mirrors the ``errno``-style
failures of real verbs calls (posting to a QP in the wrong state, queue
overflow, protection faults) and the MPI layer mirrors the MPI error
classes relevant to partitioned communication.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class FailureContext:
    """Mixin: structured localization data on transport failures.

    Chaos reports (and users) localize a failure from the exception
    object alone — which edge, which epoch, which partitions, how many
    retries — instead of digging through traces.  All fields are
    optional keyword arguments; plain-message construction still works
    everywhere.
    """

    #: Recognized context fields, in display order.
    _FIELDS = ("edge", "epoch", "partitions", "retries", "wr_id",
               "qp_num", "status")

    def __init__(self, message: str = "", **context):
        unknown = set(context) - set(self._FIELDS)
        if unknown:
            raise TypeError(
                f"unknown failure-context fields: {sorted(unknown)}")
        #: (source rank, destination rank) of the failed edge.
        self.edge = context.get("edge")
        #: The request round / epoch the failure interrupted.
        self.epoch = context.get("epoch")
        #: Partition ``(start, count)`` runs carried by the failed work.
        self.partitions = context.get("partitions")
        #: Retry budgets in force when the transport gave up.
        self.retries = context.get("retries")
        self.wr_id = context.get("wr_id")
        self.qp_num = context.get("qp_num")
        #: Completion/QP status string at failure time.
        self.status = context.get("status")
        details = ", ".join(
            f"{name}={context[name]!r}" for name in self._FIELDS
            if context.get(name) is not None)
        super().__init__(f"{message} [{details}]" if details else message)

    @property
    def context(self) -> dict:
        """The non-empty context fields as a plain dict."""
        return {name: getattr(self, name) for name in self._FIELDS
                if getattr(self, name) is not None}


# ---------------------------------------------------------------------------
# Simulation kernel errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class SimTimeError(SimulationError):
    """Raised when an event is scheduled in the past or with invalid delay."""


class ProcessError(SimulationError):
    """Raised when a simulated process is used incorrectly."""


# ---------------------------------------------------------------------------
# InfiniBand verbs errors
# ---------------------------------------------------------------------------


class IBError(ReproError):
    """Base class for simulated InfiniBand verbs failures."""


class QPStateError(IBError):
    """Operation attempted on a queue pair in an incompatible state."""


class QPOverflowError(IBError):
    """Posting a work request would exceed the queue capacity.

    Mirrors ``ENOMEM`` from ``ibv_post_send`` when the send queue is full
    or the outstanding-RDMA limit (16 on the paper's ConnectX-5 hardware)
    would be exceeded.
    """


class ProtectionError(IBError):
    """Access outside a registered memory region or with a wrong key.

    The simulated equivalent of a local/remote protection fault
    (``IBV_WC_LOC_PROT_ERR`` / ``IBV_WC_REM_ACCESS_ERR``).
    """


class CompletionError(IBError):
    """A work completion was returned with a non-success status."""


class TransportError(IBError):
    """A transport-level delivery failure (retryable or terminal).

    Base class for failures produced by the fault-injection subsystem
    (:mod:`repro.faults`): lost chunks, NAKed messages, dead links.
    Callers that can re-establish a channel catch this; callers that
    cannot treat it as fatal.
    """


class RetryExhaustedError(FailureContext, TransportError):
    """The NIC gave up retransmitting (``IBV_WC_RETRY_EXC_ERR``).

    Raised through the MPI layer when a work request exhausted the QP's
    ``retry_cnt`` (ACK timeouts) or ``rnr_retry`` (RNR NAK) budget and
    the queue pair transitioned to ERROR.  Carries the structured
    :class:`FailureContext` fields (edge, epoch, partitions, retries).
    """


# ---------------------------------------------------------------------------
# MPI runtime errors
# ---------------------------------------------------------------------------


class MPIError(ReproError):
    """Base class for simulated MPI runtime failures."""


class ChannelDownError(FailureContext, MPIError):
    """A communication channel is in a failed state.

    Raised when an operation needs a QP that sits in ERROR (or RESET)
    and no recovery path is armed to bring it back to RTS.  Carries the
    structured :class:`FailureContext` fields (edge, epoch, partitions).
    """


class MatchingError(MPIError):
    """Psend/Precv matching failed (count/size mismatch between peers)."""


class PartitionError(MPIError):
    """Invalid partition index or partition state transition."""


class RequestError(MPIError):
    """Invalid use of a (persistent) request object."""


# ---------------------------------------------------------------------------
# Configuration / tuning errors
# ---------------------------------------------------------------------------


class ConfigError(ReproError, ValueError):
    """Invalid configuration value (a ``ValueError`` too)."""


class TuningError(ReproError):
    """Tuning table lookup or construction failed."""
