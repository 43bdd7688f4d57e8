"""A whole-tree static floor that needs nothing but ``ast``.

CI's ruff job lints ``src`` and ``tests``; this pass covers *all* of
``src/repro`` with what is installed everywhere: an import nothing in
its module uses, an ``__all__`` entry the module does not define, a
mutable default argument and a bare ``except`` fail tier-1.

The reachability audit below is the fourth check: a top-level
definition that nothing but tests reaches fails too, unless ``KEEP``
names it with a reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _bound_names(alias: ast.alias) -> str:
    """The name an import binds: ``import a.b`` binds ``a``."""
    return alias.asname or alias.name.split(".")[0]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            yield node.returns


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads: loads (an attribute chain's base is
    one), ``__all__`` entries, and names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


def _assigns_all(node: ast.stmt) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _dunder_all(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if _assigns_all(node):
            names += [elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant)
                      and isinstance(elt.value, str)]
    return names


def _binds_getattr(node: ast.stmt) -> bool:
    """A PEP 562 lazy name map (``__getattr__, __dir__ = lazy_exports(…)``)."""
    return isinstance(node, ast.Assign) and any(
        isinstance(sub, ast.Name) and sub.id == "__getattr__"
        for target in node.targets for sub in ast.walk(target))


def _lazy_names(tree: ast.Module) -> set:
    """The names a lazy map exports: the strings of its dict's values."""
    return {sub.value for node in tree.body if _binds_getattr(node)
            for table in ast.walk(node.value) if isinstance(table, ast.Dict)
            for value in table.values for sub in ast.walk(value)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _defined_names(tree: ast.Module) -> set:
    """Names bound at module level, inside ``if``/``try`` included."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(_bound_names(a) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    return defined


def _findings(path: Path, root: Path = SRC.parent) -> list:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    where = path.relative_to(root)
    found = []

    if path.name != "__init__.py":  # a package's imports are its exports
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue  # imported for its side effect, and says so
            for alias in node.names:
                if alias.name != "*" and _bound_names(alias) not in used:
                    found.append(f"{where}:{node.lineno}: unused import "
                                 f"{_bound_names(alias)!r}")

    star = any(isinstance(n, ast.ImportFrom) and n.names[0].name == "*"
               for n in tree.body)
    if not star:
        defined = _defined_names(tree) | _lazy_names(tree)
        found += [f"{where}: __all__ names {name!r}, which is not defined"
                  for name in _dunder_all(tree) if name not in defined]

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for default in node.args.defaults + node.args.kw_defaults:
                mutable = isinstance(default, (
                    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray", "defaultdict",
                                            "OrderedDict", "deque"))
                if mutable:
                    found.append(f"{where}:{default.lineno}: mutable "
                                 "default argument")
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            found.append(f"{where}:{node.lineno}: bare except")
    return found


def test_the_floor_covers_the_whole_tree():
    packages = {p.relative_to(SRC).parts[0] for p in MODULES}
    # Tier-1 runs where ruff is not installed; every package counts.
    assert {"sim", "mpi", "exp", "model", "mem", "profiler"} <= packages
    assert len(MODULES) > 100


def test_no_unused_import_bad_all_mutable_default_or_bare_except():
    found = [line for path in MODULES for line in _findings(path)]
    assert not found, "\n" + "\n".join(found)


@pytest.mark.parametrize("source, expected", [
    ("import os\n", ["unused import 'os'"]),
    ("import os.path\nos.getcwd()\n", []),
    ("from typing import Optional\ndef f(x: 'Optional[int]'): ...\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b  # noqa: F401\n", []),
    ("from __future__ import annotations\n", []),
    ("__all__ = ['ghost']\n", ["__all__ names 'ghost'"]),
    ("try:\n    import fcntl\nexcept ImportError:\n    fcntl = None\n"
     "__all__ = ['fcntl']\n", []),
    ("def f(x=[]): ...\n", ["mutable default"]),
    ("def f(*, x=dict()): ...\n", ["mutable default"]),
    ("def f(x=(), y=None, z=frozenset()): ...\n", []),
    ("try:\n    pass\nexcept:\n    pass\n", ["bare except"]),
    ("try:\n    pass\nexcept BaseException:\n    raise\n", []),
    ("__getattr__, __dir__ = lazy_exports(__name__, {'mod': ('f',)})\n"
     "__all__ = ['f']\n", []),
    ("__getattr__, __dir__ = lazy_exports(__name__, {'mod': ('f',)})\n"
     "__all__ = ['mod']\n", ["__all__ names 'mod'"]),
])
def test_the_pass_finds_what_it_claims_to(tmp_path, source, expected):
    path = tmp_path / "mod.py"
    path.write_text(source)
    found = _findings(path, tmp_path)
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line


# -- reachability -------------------------------------------------------------

#: Trees that call into the package: every name they read is reached.
CALLERS = ("perfbench", "benchmarks", "examples")
#: Decorators that wrap a definition without registering it anywhere;
#: any other decorator (``@kind``, ``@register``, ``@workload``, ...)
#: makes the definition reachable by lookup.
PLAIN_DECORATORS = {"property", "staticmethod", "classmethod", "dataclass",
                    "cached_property", "contextmanager", "abstractmethod"}
#: The four reasons an unreached definition may stay, as the first word
#: of its KEEP entry: a closed form or generator a test checks the
#: simulator against; a test double; the reader of a file the CLI
#: writes; a named input of an open ROADMAP item or part of the verbs
#: API mirror.
KEEP_KINDS = ("reference", "fake", "reader", "surface")

KEEP = {
    "model.closed_form:simultaneous_completion":
        "reference: PLogGP completion, checked against the simulator",
    "model.closed_form:wide_window_completion":
        "reference: PLogGP completion, checked against the simulator",
    "model.closed_form:early_bird_clears":
        "reference: PLogGP early-bird condition",
    "model.closed_form:optimal_partitions_sqrt_rule":
        "reference: PLogGP optimal transport-partition count",
    "model.arrival:simultaneous": "reference: arrival-pattern generator",
    "model.arrival:one_before_many": "reference: arrival-pattern generator",
    "model.arrival:uniform_stagger": "reference: arrival-pattern generator",
    "model.arrival:random_stagger": "reference: arrival-pattern generator",
    "model.loggp:ptp_time": "reference: LogGP point-to-point time",
    "model.loggp:back_to_back_time": "reference: LogGP message train time",
    "units:next_power_of_two": "reference: inverse of the power-of-two "
                               "helpers the harness uses",
    "serve.client:FlakyTransport": "fake: seeded failing transport for "
                                   "the client retry tests",
    "chaos.generators:schedule_from_dict": "reader: rebuilds the schedule "
                                           "of a --bundle-dir failure bundle",
    "analysis:WireStats": "surface: trace analysis, the telemetry spine's "
                          "input (ROADMAP)",
    "analysis:wire_stats": "surface: trace analysis, the telemetry spine's "
                           "input (ROADMAP)",
    "analysis:message_wire_latencies": "surface: trace analysis, the "
                                       "telemetry spine's input (ROADMAP)",
    "analysis:latency_percentiles": "surface: trace analysis, the "
                                    "telemetry spine's input (ROADMAP)",
    "analysis:idle_gaps": "surface: trace analysis, the telemetry spine's "
                          "input (ROADMAP)",
    "ib.verbs:ibv_dereg_mr": "surface: the verbs API mirror's inverse of "
                             "ibv_reg_mr",
}


def _decorator_name(node: ast.expr):
    while isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)


def _reads(node: ast.AST, strings: bool = True):
    """Every name ``node`` reads: loads, attribute names, imported
    names and (unless ``strings`` is false) identifier-shaped strings
    (``getattr``/registry keys)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and sub.value.isidentifier()):
            yield sub.value


def _unreached(src: Path, callers) -> tuple[set, set]:
    """(every top-level definition, the unreached ones) as
    ``"module:name"`` keys, ``module`` relative to ``src``.

    A definition is reached when a caller tree, module-level code or
    the body of a *reached* definition reads its name — its own body
    does not count, nor do a package ``__init__``'s imports, the names
    of its lazy map or any ``__all__``.  Iterating to a fixpoint makes
    code that only dead code uses dead too.
    """
    defs = {}          # key -> name
    reached = set()
    reads = []         # (owning definition's key or None, name)
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__") or "repro"
        init = path.name == "__init__.py"
        for stmt in ast.parse(path.read_text()).body:
            if _assigns_all(stmt) or (
                    init and isinstance(stmt, (ast.Import, ast.ImportFrom))):
                continue  # an export list reaches nothing
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = f"{module}:{stmt.name}"
                defs[owner] = stmt.name
                if any(_decorator_name(d) not in PLAIN_DECORATORS
                       for d in stmt.decorator_list):
                    reached.add(owner)  # registered: found by lookup
            # A lazy map's strings are an export list too; the call
            # that builds it is still a read.
            lazy = init and _binds_getattr(stmt)
            reads += [(owner, name)
                      for name in _reads(stmt, strings=not lazy)]
    for caller in callers:
        for path in sorted(caller.rglob("*.py")):
            if "tests" not in path.relative_to(caller).parts:
                reads += [(None, name)
                          for name in _reads(ast.parse(path.read_text()))]

    grew = True
    while grew:
        live = {}
        for owner, name in reads:
            if owner is None or owner in reached:
                live.setdefault(name, set()).add(owner)
        grown = {key for key, name in defs.items() if key not in reached
                 and live.get(name, set()) - {key}}
        reached |= grown
        grew = bool(grown)
    return set(defs), set(defs) - reached


def _audit(src: Path, callers, keep: dict) -> list:
    defined, unreached = _unreached(src, callers)
    found = [f"{key}: nothing but tests reaches it — delete it, or KEEP "
             f"it with a reason" for key in sorted(unreached - set(keep))]
    for key, reason in sorted(keep.items()):
        if key not in defined:
            found.append(f"KEEP names {key}, which no longer exists")
        elif key not in unreached:
            found.append(f"KEEP names {key}, which is reached")
        if reason.split(":")[0] not in KEEP_KINDS:
            found.append(f"KEEP reason for {key} is not one of "
                         f"{KEEP_KINDS}: {reason!r}")
    return found


def test_every_definition_is_reached_or_kept():
    callers = [SRC.parent.parent / name for name in CALLERS]
    found = _audit(SRC, callers, KEEP)
    assert not found, "\n" + "\n".join(found)


_REGISTRY = "def kind(name):\n    return lambda fn: fn\n"
_LAZY = "def lazy_exports(package, exports): ...\n"
_LAZY_INIT = ("from lazy import lazy_exports\n"
              "__getattr__, __dir__ = lazy_exports(__name__, "
              "{'mod': ('exported',)})\n"
              "__all__ = ['exported']\n")


@pytest.mark.parametrize("files, keep, expected", [
    ({"mod.py": "def dead(): ...\n"}, {},
     ["mod:dead: nothing but tests"]),
    ({"mod.py": "def helper(): ...\ndef dead():\n    helper()\n"}, {},
     ["mod:dead: nothing", "mod:helper: nothing"]),
    ({"mod.py": "def rec(n):\n    return rec(n - 1)\n"}, {},
     ["mod:rec: nothing"]),
    ({"reg.py": _REGISTRY,
      "mod.py": "from reg import kind\n@kind('x')\ndef adapter(): ...\n"},
     {}, []),
    ({"mod.py": "@property\ndef plain(): ...\n"}, {},
     ["mod:plain: nothing"]),
    ({"mod.py": "def probed(): ...\n",
      "perfbench/probe.py": "from repro.mod import probed\n"}, {}, []),
    ({"mod.py": "def probed(): ...\n",
      "perfbench/tests/test_probe.py": "from repro.mod import probed\n"},
     {}, ["mod:probed: nothing"]),
    ({"mod.py": "def by_string(): ...\nHOOK = getattr(obj, 'by_string')\n"},
     {}, []),
    ({"mod.py": "def by_key(): ...\n",
      "other.py": "TABLE = {'x': 'by_key'}\n"}, {}, []),
    ({"mod.py": "def used(): ...\n", "other.py": "def live(): ...\n",
      "caller.py": "from repro.other import live\nlive()\n"},
     {}, ["mod:used: nothing"]),
    ({"pkg/__init__.py": "from pkg.mod import exported\n"
                         "__all__ = ['exported']\n",
      "pkg/mod.py": "def exported(): ...\n__all__ = ['exported']\n"},
     {}, ["pkg.mod:exported: nothing"]),
    ({"mod.py": "def dead(): ...\n"}, {"mod:dead": "fake: a double"}, []),
    ({"mod.py": "def dead(): ...\n"}, {"mod:dead": "because"},
     ["KEEP reason for mod:dead"]),
    ({"mod.py": "def live(): ...\nlive()\n"}, {"mod:live": "fake: x"},
     ["KEEP names mod:live, which is reached"]),
    ({"mod.py": "X = 1\n"}, {"mod:gone": "fake: x"},
     ["KEEP names mod:gone, which no longer exists"]),
    ({"lazy.py": _LAZY, "pkg/__init__.py": _LAZY_INIT,
      "pkg/mod.py": "def exported(): ...\n"},
     {}, ["pkg.mod:exported: nothing"]),
    ({"lazy.py": _LAZY, "pkg/__init__.py": _LAZY_INIT,
      "pkg/mod.py": "def exported(): ...\n",
      "benchmarks/use.py": "from repro.pkg import exported\nexported()\n"},
     {}, []),
])
def test_the_audit_finds_what_it_claims_to(tmp_path, files, keep, expected):
    src = tmp_path / "src" / "repro"
    for name, source in files.items():
        top = name.split("/")[0]
        path = (tmp_path if top in CALLERS else src) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    found = _audit(src, [tmp_path / name for name in CALLERS], keep)
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line
