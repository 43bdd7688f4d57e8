"""Parser for the canonical plan text.

``parse(text)`` accepts anything :func:`repro.plan.printer.print_plan`
emits (plus insignificant whitespace variations) and rebuilds the
:class:`~repro.plan.ir.Plan`.  Grammar::

    plan    := "plan" "{" op* "}"
    op      := NAME attrs?
    attrs   := "(" [ kv ("," kv)* ] ")"
    kv      := NAME "=" value
    value   := INT | FLOAT | "none"

Op names resolve through :data:`repro.plan.ir.OPS`; unknown ops,
unknown attributes and malformed values raise
:class:`~repro.plan.ir.PlanError` with line/column context, and so does
a plan whose ops contradict each other (:class:`~repro.plan.ir.Plan`
checks that on construction).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.plan.ir import OPS, Plan, PlanError, PlanOp

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<float>[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)
           |[-+]?(?:\d+\.\d*|\.\d+))
  | (?P<int>[-+]?\d+)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct>[(){}=,])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "float" | "int" | "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise PlanError(
                f"plan parse error at line {line}, col {col}: "
                f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(tok, f"expected {text!r}")
        return tok

    def fail(self, tok: _Token, message: str):
        shown = tok.text or "end of input"
        raise PlanError(
            f"plan parse error at line {tok.line}, col {tok.col}: "
            f"{message}, got {shown!r}")

    # -- grammar -------------------------------------------------------

    def parse(self) -> Plan:
        self.expect("plan")
        self.expect("{")
        ops = []
        while self.peek().text != "}":
            ops.append(self.op())
        self.expect("}")
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(tok, "expected end of input")
        return Plan(tuple(ops))

    def op(self) -> PlanOp:
        tok = self.next()
        if tok.kind != "name":
            self.fail(tok, "expected an op name")
        cls = OPS.get(tok.text)
        if cls is None:
            self.fail(tok, f"unknown plan op {tok.text!r}")
        kwargs = self.attrs() if self.peek().text == "(" else {}
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise PlanError(
                f"plan parse error at line {tok.line}, col {tok.col}: "
                f"bad attributes for {tok.text!r}: {exc}") from None

    def attrs(self) -> dict[str, object]:
        self.expect("(")
        kwargs: dict[str, object] = {}
        while self.peek().text != ")":
            if kwargs:
                self.expect(",")
            key = self.next()
            if key.kind != "name":
                self.fail(key, "expected an attribute name")
            self.expect("=")
            kwargs[key.text] = self.value()
        self.expect(")")
        return kwargs

    def value(self) -> object:
        tok = self.next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "float":
            return float(tok.text)
        if tok.kind == "name" and tok.text == "none":
            return None
        self.fail(tok, "expected a value")


def parse(text: str) -> Plan:
    """Parse canonical plan text back into a :class:`Plan`."""
    return _Parser(text).parse()
