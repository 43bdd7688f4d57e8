"""The communication-plan IR: typed ops with a stable textual form.

A :class:`Plan` is an ordered, immutable tree of :class:`PlanOp` nodes
describing *what a partitioned transfer should do* — how many
transport partitions, how many QPs, whether the δ-timer path is
armed, how edges of a collective differ, and which fallback rungs a
degradation ladder carries — without saying *how* the transport
engine realizes it.  Before this IR existed the same decisions lived
as imperative side effects in three places (``coll`` per-edge specs,
``autotune`` candidate arms and ``mpi.ladder`` rung lists); a plan
makes them one printable, diffable, hashable artifact:

* :attr:`Plan.text` is the canonical textual form — printing is
  deterministic, and ``parse(plan.text)`` reproduces an equal plan
  (print → parse → print is a fixed point, guarded by tests);
* :attr:`Plan.digest` is a content digest of the text, the identity
  used by the tuning store and lowering's spec memo;
* :mod:`repro.plan.passes` legalizes plans and :mod:`repro.plan.lower`
  emits the per-edge ``ModuleSpec`` configuration the transport engine
  already consumes.

Op vocabulary (see ``docs/PLAN_IR.md`` for the full reference)::

    partition(n=8)            # 8 transport partitions
    qp_pool(n=2)              # QPs provisioned for the request
    aggregate(delta=3.5e-05)  # arm the δ-timer flush path
    edge(neighbor=3) { ... }  # per-edge subplan of a collective
    fallback { rung { ... } rung { persist() } }
    persist() / channel()     # baseline transports
    native()                  # placeholder: the caller's preferred rung
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Iterator, Optional, Type, TypeVar

from repro.errors import ConfigError


class PlanError(ConfigError):
    """An ill-formed plan (bad op attributes, unparseable text)."""


_O = TypeVar("_O", bound="PlanOp")

#: ``op name -> op class`` registry the parser resolves against.
OPS: dict[str, Type["PlanOp"]] = {}


@dataclass(frozen=True)
class PlanOp:
    """One IR node.  Subclasses declare attrs as dataclass fields."""

    #: Canonical op name in the textual form.
    name: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.name:
            if cls.name in OPS:
                raise ValueError(f"duplicate plan op {cls.name!r}")
            OPS[cls.name] = cls

    # -- structure -----------------------------------------------------

    def attrs(self) -> list[tuple[str, object]]:
        """Ordered (key, value) attribute pairs (plan-valued excluded)."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Plan) or _is_plan_tuple(value):
                continue
            out.append((f.name, value))
        return out

    def bodies(self) -> list["Plan"]:
        """Nested subplans in print order (empty for leaf ops)."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Plan):
                out.append(value)
            elif _is_plan_tuple(value):
                out.extend(value)
        return out

    def validate(self) -> None:
        """Check attribute domains; raise :class:`PlanError`."""


def _is_plan_tuple(value) -> bool:
    return (isinstance(value, tuple) and len(value) > 0
            and all(isinstance(v, Plan) for v in value))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PlanError(message)


# ---------------------------------------------------------------- leaf ops


@dataclass(frozen=True)
class Partition(PlanOp):
    """Split the payload into ``n`` transport partitions."""

    n: int
    name: ClassVar[str] = "partition"

    def validate(self):
        _require(isinstance(self.n, int) and self.n >= 1,
                 f"partition n must be a positive int, got {self.n!r}")


@dataclass(frozen=True)
class QPPool(PlanOp):
    """Provision ``n`` queue pairs for the request."""

    n: int
    name: ClassVar[str] = "qp_pool"

    def validate(self):
        _require(isinstance(self.n, int) and self.n >= 1,
                 f"qp_pool n must be a positive int, got {self.n!r}")


@dataclass(frozen=True)
class Aggregate(PlanOp):
    """Arm the δ-timer aggregation path (``delta=None`` = plain path)."""

    delta: Optional[float] = None
    #: Ablation: flush holes as one multi-SGE WR (Section IV-D).
    sg: bool = False
    name: ClassVar[str] = "aggregate"

    def validate(self):
        _require(self.delta is None or
                 (isinstance(self.delta, (int, float)) and self.delta >= 0),
                 f"aggregate delta must be >= 0 or none, got {self.delta!r}")


@dataclass(frozen=True)
class Persist(PlanOp):
    """The ``part_persist`` baseline transport."""

    name: ClassVar[str] = "persist"


@dataclass(frozen=True)
class Channel(PlanOp):
    """The QP-free shared p2p channel transport."""

    name: ClassVar[str] = "channel"


@dataclass(frozen=True)
class Native(PlanOp):
    """Placeholder rung: the caller's preferred transport goes here.

    ``strategy`` optionally names the aggregation strategy that will
    fill the slot (``ploggp``, ``autotune``, ...) for display; the
    placeholder must be substituted before lowering.
    """

    strategy: Optional[str] = None
    name: ClassVar[str] = "native"

    def validate(self):
        _require(self.strategy is None or
                 (isinstance(self.strategy, str)
                  and self.strategy.isidentifier()),
                 f"native strategy must be an identifier, "
                 f"got {self.strategy!r}")


# ------------------------------------------------------------- region ops


@dataclass(frozen=True)
class Edge(PlanOp):
    """Per-neighbor subplan of a collective."""

    neighbor: int
    body: "Plan"
    name: ClassVar[str] = "edge"

    def validate(self):
        _require(isinstance(self.neighbor, int) and self.neighbor >= 0,
                 f"edge neighbor must be a non-negative int, "
                 f"got {self.neighbor!r}")


@dataclass(frozen=True)
class Fallback(PlanOp):
    """Graceful-degradation ladder: ordered rungs, preferred first."""

    rungs: tuple["Plan", ...]
    name: ClassVar[str] = "fallback"

    def validate(self):
        _require(isinstance(self.rungs, tuple) and len(self.rungs) >= 1,
                 "fallback needs at least one rung")


# -------------------------------------------------------------------- Plan


@dataclass(frozen=True)
class Plan:
    """An ordered, immutable sequence of plan ops."""

    ops: tuple[PlanOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, PlanOp):
                raise PlanError(f"not a plan op: {op!r}")
            op.validate()

    # -- identity ------------------------------------------------------

    @cached_property
    def text(self) -> str:
        """Canonical textual form (stable under print → parse → print)."""
        from repro.plan.printer import print_plan

        return print_plan(self)

    @cached_property
    def digest(self) -> str:
        """Content digest of the canonical text (16 hex chars)."""
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]

    def __str__(self) -> str:
        return self.text

    # -- traversal -----------------------------------------------------

    def find(self, op_type: Type[_O]) -> list[_O]:
        """Top-level ops of ``op_type`` (no descent into bodies)."""
        return [op for op in self.ops if isinstance(op, op_type)]

    def first(self, op_type: Type[_O]) -> Optional[_O]:
        """The first top-level op of ``op_type``, or None."""
        for op in self.ops:
            if isinstance(op, op_type):
                return op
        return None

    def walk(self) -> Iterator[PlanOp]:
        """Every op in the tree, depth-first, in print order."""
        for op in self.ops:
            yield op
            for body in op.bodies():
                yield from body.walk()

    def edges(self) -> dict[int, "Plan"]:
        """Top-level ``edge`` bodies keyed by neighbor rank."""
        out: dict[int, Plan] = {}
        for op in self.find(Edge):
            if op.neighbor in out:
                raise PlanError(
                    f"duplicate edge for neighbor {op.neighbor}")
            out[op.neighbor] = op.body
        return out

    def default_body(self) -> Optional["Plan"]:
        """The non-``edge`` top-level ops as a plan (None if empty)."""
        rest = tuple(op for op in self.ops if not isinstance(op, Edge))
        return Plan(rest) if rest else None


def plan(*ops: PlanOp) -> Plan:
    """Convenience constructor: ``plan(Partition(8), QPPool(2))``."""
    return Plan(tuple(ops))
