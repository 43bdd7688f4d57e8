"""The communication-plan IR: typed ops with a stable textual form.

A :class:`Plan` is an ordered, immutable sequence of :class:`PlanOp`
nodes spelling the three knobs the paper fixes at ``Psend_init`` — how
many transport partitions, how many QPs, and whether the δ-timer path
is armed — or the ``part_persist`` baseline, without saying *how* the
transport engine realizes them.  It is
:class:`~repro.core.aggregators.PlanChoice` as one printable, diffable,
hashable artifact:

* :attr:`Plan.text` is the canonical textual form — printing is
  deterministic, and ``parse(plan.text)`` reproduces an equal plan
  (print → parse → print is a fixed point, guarded by tests);
* :attr:`Plan.digest` is a content digest of the text, the identity
  the tuning store keys entries by (via ``plan_space_digest``);
* :mod:`repro.plan.passes` legalizes plans and :mod:`repro.plan.lower`
  emits the ``ModuleSpec`` the transport engine consumes.

Op vocabulary (see ``docs/PLAN_IR.md`` for the full reference)::

    partition(n=8)            # 8 transport partitions
    qp_pool(n=2)              # QPs provisioned for the request
    aggregate(delta=3.5e-05)  # arm the δ-timer flush path
    persist()                 # the part_persist baseline, on its own

Each op kind appears at most once, and ``persist()`` only alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar, Optional, Type, TypeVar

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

    def attrs(self) -> list[tuple[str, object]]:
        """Ordered (key, value) attribute pairs."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def validate(self) -> None:
        """Check attribute domains; raise :class:`PlanError`."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PlanError(message)


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
class Plan:
    """An ordered, immutable sequence of plan ops."""

    ops: tuple[PlanOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        kinds = set()
        for op in self.ops:
            if not isinstance(op, PlanOp):
                raise PlanError(f"not a plan op: {op!r}")
            op.validate()
            if type(op) in kinds:
                raise PlanError(f"op {op.name!r} appears twice in one plan")
            kinds.add(type(op))
        if Persist in kinds and len(self.ops) > 1:
            raise PlanError("persist() takes no other ops")

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

    def first(self, op_type: Type[_O]) -> Optional[_O]:
        """The op of ``op_type``, or None."""
        for op in self.ops:
            if isinstance(op, op_type):
                return op
        return None


def plan(*ops: PlanOp) -> Plan:
    """Convenience constructor: ``plan(Partition(8), QPPool(2))``."""
    return Plan(tuple(ops))
