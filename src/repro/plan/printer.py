"""Canonical textual form for plans.

The printed form is the plan's identity: :attr:`Plan.digest` hashes
exactly this text, so the printer must be deterministic and must be a
fixed point under ``print → parse → print`` (guarded by
``tests/test_plan/test_ir.py``; ``tests/test_plan/test_identity.py``
pins the text and digest of every leaf shape).  Rules:

* ``plan {``, then one op per line indented two spaces, then ``}``;
* attributes in dataclass field order, ``key=value``, with
  default-valued attributes omitted;
* values: ints verbatim, floats via ``repr`` (shortest round-trip
  form), ``none`` for None;
* an op with no printed attributes still gets ``()`` (``persist()``).
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.plan.ir import Plan, PlanOp


def format_value(value: object) -> str:
    """One attribute value in canonical form."""
    if value is None:
        return "none"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    raise ValueError(f"unprintable plan attribute: {value!r}")


def _printed_attrs(op: "PlanOp") -> list[str]:
    out = []
    defaults = {f.name: f.default for f in fields(op)}
    for key, value in op.attrs():
        if defaults.get(key, MISSING) == value:
            continue  # at its default
        out.append(f"{key}={format_value(value)}")
    return out


def print_plan(plan: "Plan") -> str:
    """The canonical multi-line text of ``plan`` (no trailing newline)."""
    lines = ["plan {"]
    for op in plan.ops:
        lines.append(f"  {op.name}({', '.join(_printed_attrs(op))})")
    lines.append("}")
    return "\n".join(lines)
