"""A whole-tree static floor that needs nothing but ``ast``.

CI's ruff job lints ``src`` and ``tests``; this pass covers *all* of
``src/repro`` with what is installed everywhere: an import nothing in
its module uses, an ``__all__`` entry the module does not define, a
mutable default argument and a bare ``except`` fail tier-1.

Three audits read one resolved call graph (:class:`_Graph`): a
definition, method or property nothing but tests reaches fails unless
``KEEP`` names it with a reason; so does a config field only tests set,
unless ``MODEL_FIELDS`` lists it as a calibrated cost, and an option (a
defaulted public parameter, an optional descriptor key) that only tests
set, unless ``OPTIONS`` names it.  A method is reached, and an argument
sets an option, through the receiver (``self``, a constructor call, a
local or ``self.attr`` one built); only an attribute of a receiver the
graph cannot resolve, or a ``getattr`` string, still matches a method
by spelling, and ``SPELLING_FALLBACKS`` caps how many reads do.
"""

import ast
import builtins
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

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
    _matches(_findings(path, tmp_path), expected)


# -- reachability -------------------------------------------------------------

#: Trees that call into the package: every name they read is reached.
CALLERS = ("perfbench", "examples")
#: Decorators that wrap a definition without registering it anywhere;
#: any other decorator
#: makes the definition reachable by lookup.
PLAIN_DECORATORS = {"property", "setter", "staticmethod", "classmethod",
                    "dataclass", "cached_property", "contextmanager",
                    "abstractmethod", "lru_cache", "runtime_checkable"}
#: The four reasons an unreached definition (or an option only tests
#: set) may stay, as the first word of its KEEP (or OPTIONS) entry: a
#: closed form or generator a test checks the simulator against; a test
#: double; the reader of a file the CLI writes; a named input of an open
#: ROADMAP item, an entry point, or part of an API the package mirrors
#: (verbs, MPI, simpy).
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
    "chaos.generators:schedule_from_dict": "reader: rebuilds the schedule "
                                           "of a --bundle-dir failure bundle",
    "ib.verbs:ibv_dereg_mr": "surface: the verbs API mirror's inverse of "
                             "ibv_reg_mr",
}


def _decorator_name(node: ast.expr):
    while isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)


def _key_module(dotted: str) -> str:
    """An imported module's key form: ``repro.mpi.x`` is ``mpi.x``."""
    return dotted if dotted == "repro" else dotted.removeprefix("repro.")


def _bindings(tree: ast.Module, module: str) -> dict:
    """``name -> (module, attr)`` for every import in a file, one inside
    a function included (``attr`` is None for ``import a.b``), and for
    the names of a package's lazy map."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else name
                bound[name] = (_key_module(target), None)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    _key_module(node.module), alias.name)
    for stmt in tree.body:
        if _binds_getattr(stmt):
            for table in ast.walk(stmt.value):
                if isinstance(table, ast.Dict):
                    for sub, names in zip(table.keys, table.values):
                        for name in ast.walk(names):
                            if isinstance(name, ast.Constant):
                                bound[name.value] = (
                                    f"{module}.{sub.value}", name.value)
    return bound


def _span(node: ast.AST) -> int:
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return node.end_lineno - first + 1


def _registered(node: ast.AST) -> bool:
    return any(_decorator_name(d) not in PLAIN_DECORATORS
               for d in node.decorator_list)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Callables of no package; ``dict`` takes any keyword, as a spelling.
BUILTINS = set(vars(builtins)) - {"dict"}
#: A known object's member that is no definition, holding nothing known.
_DATA = ("data", None)


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    """A file's tree, parsed once per session (the audits share it)."""
    return ast.parse(path.read_text(), filename=str(path))


def _caller_paths(callers):
    for caller in callers:
        for path in sorted(caller.rglob("*.py")):
            if "tests" not in path.relative_to(caller).parts:
                yield path


def _closure(start, edges: dict) -> set:
    seen, stack = set(), list(start)
    while stack:
        if (node := stack.pop()) not in seen:
            seen.add(node)
            stack += edges.get(node, ())
    return seen


class _Scope(NamedTuple):
    """Where a node sits: its module, the definition it belongs to (None
    for live code), the class ``self`` names, the class body it is in,
    and the enclosing functions as ``(key or None, arguments)``."""
    module: str
    owner: Optional[str] = None
    cls: Optional[str] = None
    body: Optional[str] = None
    stack: tuple = ()


class _Graph:
    """The one resolved call graph over ``src`` and the caller trees,
    built once per session and read by all three audits.

    A value is ``("def", key)``, ``("mod", module)``, ``("obj", class)``
    (an instance), ``("meth", keys)`` (a name's methods on a class, its
    bases and its subclasses: an override is reached through its base's
    call), ``("ext", name)`` (another package's), ``_DATA``, or None: a
    receiver nothing resolves, whose attribute falls back to spelling."""

    def __init__(self, src: Path, callers):
        self.files = {}
        for path in sorted(src.rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(p for p in parts if p != "__init__") or "repro"
            self.files[module] = (path, _parse(path))
        for path in _caller_paths(callers):
            self.files[f"<{path}>"] = (path, _parse(path))
        self.bindings = {module: _bindings(tree, module)
                         for module, (_, tree) in self.files.items()}
        #: key -> node; the judged ones: key -> [name, class, lines, exempt]
        self.nodes, self.keys, self.defs = {}, {}, {}
        for module, (_, tree) in self.files.items():
            for stmt in tree.body:
                top = f"{module}:{getattr(stmt, 'name', '')}"
                for node, key, cls in [(stmt, top, None)] + [
                        (item, f"{top}.{item.name}", top)
                        for item in getattr(stmt, "body", ())
                        if isinstance(stmt, ast.ClassDef)
                        and isinstance(item, _FUNCS)]:
                    if not isinstance(node, _DEFS):
                        continue
                    self.nodes.setdefault(key, node)
                    if not module.startswith("<"):
                        self.keys[id(node)] = (key, cls)
                        entry = self.defs.setdefault(key, [
                            node.name, cls, 0, bool(cls) and (
                                _registered(node) or node.name[:2]
                                == node.name[-2:] == "__")])
                        entry[2] += _span(node)  # a property and its setter
        self.registered = {key for key, (_, cls, _, _) in self.defs.items()
                           if cls is None and _registered(self.nodes[key])}
        self.classes = {key for key, node in self.nodes.items()
                        if isinstance(node, ast.ClassDef)}
        self.bases, self.subs, self.family, self.held = {}, {}, {}, {}
        for key in self.classes:
            bases = [self._value(node, _Scope(key.partition(":")[0]))
                     for node in self.nodes[key].bases]
            self.bases[key] = [base[1] for base in bases
                               if base and base[1] in self.classes]
            for base in self.bases[key]:
                self.subs.setdefault(base, []).append(key)
        for _ in range(PASSES):  # ``held`` is what the last pass found
            self.next, self.pending = {}, {}
            self.reads, self.fallbacks, self.args = [], [], []
            for module, (path, tree) in self.files.items():
                self._module(module, path, tree)
            self.held = self.next
        self.spelled = {module: _spelled(tree)
                        for module, (_, tree) in self.files.items()}

    def _resolve(self, module: str, name: str, seen=()):
        """What ``name`` means at the top of ``module``."""
        if module not in self.bindings or (module, name) in seen:
            return None
        if f"{module}:{name}" in self.nodes:
            return ("def", f"{module}:{name}")
        target, attr = self.bindings[module].get(name, (None, None))
        if attr is None:
            return ("mod", target) if target in self.bindings else None
        return self._attribute(target, attr, seen + ((module, name),))

    def _attribute(self, module: str, attr: str, seen=()):
        """What ``module.attr`` means: a name it binds, else a submodule."""
        sub = attr if module == "repro" else f"{module}.{attr}"
        return self._resolve(module, attr, seen) or (
            ("mod", sub) if sub in self.bindings else None)

    def _member(self, base: tuple, attr: str):
        kind, key = base
        if kind == "ext":
            return base
        if kind == "mod":
            return self._attribute(key, attr) or _DATA
        if kind not in ("def", "obj") or key not in self.classes:
            return None if kind in ("data", "meth") else _DATA
        if key not in self.family:
            self.family[key] = sorted(_closure(_closure([key], self.subs),
                                               self.bases))
        related = self.family[key]
        found = tuple(method for cls in related
                      if (method := f"{cls}.{attr}") in self.nodes)
        if found:
            return ("meth", found)
        if any(f"{cls}.__getattr__" in self.nodes for cls in related):
            return None  # forwarded to an object nothing here names
        held = {self.held[cls, attr] for cls in related
                if (cls, attr) in self.held}
        return held.pop() if kind == "obj" and len(held) == 1 \
            and None not in held else _DATA

    def _value(self, node: ast.expr, scope: _Scope):
        if isinstance(node, ast.Name):
            if scope.cls and node.id in ("self", "cls"):
                return ("obj" if node.id == "self" else "def", scope.cls)
            for where in [id(args) for _, args in scope.stack[::-1]] + [
                    scope.body]:
                if (where, node.id) in self.held:
                    return self.held[where, node.id]
            bound = self.bindings[scope.module].get(node.id)
            return self.held.get((scope.module, node.id)) or self._resolve(
                scope.module, node.id) or (
                ("ext", node.id) if node.id in BUILTINS
                or bound and bound[0] not in self.bindings else None)
        if isinstance(node, ast.Attribute):
            base = self._value(node.value, scope)
            return base and self._member(base, node.attr)
        func = isinstance(node, ast.Call) and self._value(node.func, scope)
        if func and func[0] == "def" and func[1] in self.classes:
            return ("obj", func[1])
        return None

    def _bind(self, var: tuple, value, scope: _Scope):
        """Let ``var`` (a name, ``self.attr``) hold the instance or method
        a store gives it, where every store of it agrees."""
        value = value and self._value(value, scope)
        value = value if value and value[0] in ("obj", "meth") else None
        self.next[var] = value if self.next.get(var, value) == value else None

    def _init(self, key: str):
        """The class whose ``__init__`` constructing ``key`` runs."""
        if f"{key}.__init__" in self.nodes:
            return key
        return next(filter(None, map(self._init, self.bases[key])), None)

    def _read(self, owner, value):
        if value and value[0] in ("def", "meth"):
            keys = value[1] if value[0] == "meth" else (value[1],)
            self.reads += [(owner, ("key", key)) for key in keys]

    def _module(self, module: str, path: Path, tree: ast.Module):
        if module.startswith("<"):  # a caller: every import is a use
            for node in ast.walk(tree):
                for alias in node.names if isinstance(
                        node, ast.ImportFrom) and node.module else ():
                    self._read(None, self._attribute(
                        _key_module(node.module), alias.name))
            return self._visit(tree, _Scope(module))
        init = path.name == "__init__.py"
        for stmt in tree.body:
            if _assigns_all(stmt) or (
                    init and isinstance(stmt, (ast.Import, ast.ImportFrom))):
                continue  # an export list reaches nothing
            # A lazy map's strings are an export list too; the call that
            # builds it is still a read.
            lazy = init and _binds_getattr(stmt)
            self._visit(getattr(stmt.value, "func", stmt) if lazy else stmt,
                        _Scope(module))

    def _visit(self, node: ast.AST, scope: _Scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        key, cls = self.keys.get(id(node), (None, None))  # if judged
        if isinstance(node, (*_FUNCS, ast.Lambda)):
            args = node.args
            function = cls if cls and node.name == "__init__" else key
            scope = scope._replace(owner=key or scope.owner, body=None,
                                   cls=cls or scope.cls,
                                   stack=scope.stack + ((function, args),))
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        *filter(None, (args.vararg, args.kwarg))):
                self._bind((id(args), arg.arg), None, scope)
        elif isinstance(node, ast.ClassDef):
            scope = scope._replace(owner=key or scope.owner, cls=None,
                                   body=key or id(node))
            for item in node.body if key else ():  # ``alias = method``
                if isinstance(item, _FUNCS):
                    self.next[key, item.name] = ("meth",
                                                 (f"{key}.{item.name}",))
        elif isinstance(getattr(node, "ctx", None), ast.Store):
            value = self.pending.pop(id(node), None)
            if isinstance(node, ast.Name):
                self._bind((id(scope.stack[-1][1]) if scope.stack else
                            scope.body or scope.module, node.id), value, scope)
            elif isinstance(node, ast.Attribute) and scope.cls and \
                    getattr(node.value, "id", None) == "self" and \
                    getattr(value, "value", 0) is not None:  # None: a stand-in
                self._bind((scope.cls, node.attr), value, scope)
        if isinstance(node, ast.Name):
            self._read(scope.owner, self._value(node, scope))
        elif isinstance(node, ast.Attribute):
            base = self._value(node.value, scope)
            value = base and self._member(base, node.attr)
            if value is None:
                self.fallbacks.append(node.attr)
                self.reads.append((scope.owner, ("spell", node.attr)))
            self._read(scope.owner, value)
        elif isinstance(node, ast.Call):
            self._call(node, scope)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            self.reads.append((scope.owner, ("str", node.value)))
        if isinstance(node, ast.Assign):  # what each target gets
            self.pending.update((id(target), node.value)
                                for target in node.targets)
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _call(self, node: ast.Call, scope: _Scope):
        """Record what a call passes to each function it reaches: a key
        (``partial(f, …)`` reaches ``f``), ``("spell", name)`` for a method
        nothing resolves, ``"?"`` for an unknown callable (a local,
        ``dict``), none for another package's."""
        func, args = node.func, node.args
        if args and getattr(func, "id",
                            getattr(func, "attr", None)) == "partial":
            func, args = args[0], args[1:]
        if getattr(func, "id", None) in ("getattr", "hasattr", "setattr") \
                and len(args) > 1 and _str_key(args[1]):
            self.reads.append((scope.owner, ("spell", args[1].value)))
        kind, key = self._value(func, scope) or _DATA
        if kind == "meth":
            callees = tuple(method.removesuffix(".__init__") for method in key)
        elif kind == "def":
            callees = tuple(filter(None, [self._init(key)])) \
                if key in self.classes else (key,)
        elif kind == "data" and isinstance(func, ast.Attribute):
            callees = (("spell", func.attr),)
        else:
            callees = ("?",) if kind in ("data", "obj") else ()
        given = [(k.arg, k.value) for k in node.keywords if k.arg]
        for index, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                given += [(i, None) for i in range(index, 64)]
                break
            given.append((index, arg))
        self.args += [(scope.module, callees, slot, value, scope.stack)
                      for slot, value in given]


#: Walks of the tree; each sees what the last found a name holds.
PASSES = 2


@lru_cache(maxsize=None)
def _graph(src: Path, callers: tuple) -> _Graph:
    return _Graph(src, callers)


def _fixpoint(graph: _Graph, roots) -> set:
    """The keys reached from live code and ``roots``: by a read, from
    outside their own body, of their key or of their spelling (through
    a receiver nothing resolves, or a ``getattr`` string); a top-level
    one also by an identifier string (a registry key).  A method is
    reached only while its class is."""
    by_owner, by_name, members = {}, {}, {}
    for owner, target in graph.reads:
        by_owner.setdefault(owner, []).append(target)
    for key, (name, cls, _, _) in graph.defs.items():
        by_name.setdefault(name, []).append(key)
        members.setdefault(cls, []).append(key)
    readers, reached, pending = {}, set(), []

    def live(owner):
        for target in by_owner.get(owner, ()):
            readers.setdefault(target, set()).add(owner)
            kind, value = target
            pending.extend([value] if kind == "key"
                           else by_name.get(value, ()))
        pending.extend(members.get(owner, ()))

    live(None)
    for key in roots:
        reached.add(key)
        live(key)
    while pending:
        if (key := pending.pop()) in reached or key not in graph.defs:
            continue
        name, cls, _, exempt = graph.defs[key]
        by = readers.get(("key", key), set()) | readers.get(
            ("spell", name), set()) | (readers.get(("str", name), set())
                                       if cls is None else set())
        if (cls is None or cls in reached) and (exempt or by - {key}):
            reached.add(key)
            live(key)
    return reached


def _stale(table: str, entries: dict, known, needless, why: str,
           kinds=KEEP_KINDS) -> list:
    """The entries of an exemption table that name nothing, exempt what
    needs no exemption, or give a reason of no kind in ``kinds``."""
    found = []
    for key, reason in sorted(entries.items()):
        if key not in known:
            found.append(f"{table} names {key}, which no longer exists")
        elif key in needless:
            found.append(f"{table} names {key}, which {why}")
        if kinds and reason.split(":")[0] not in kinds:
            found.append(f"{table} reason for {key} is not one of "
                         f"{kinds}: {reason!r}")
    return found


def _audit(src: Path, callers, keep: dict) -> list:
    """Every definition only tests reach (an unreached class stands for
    its methods), and every stale or badly reasoned ``keep`` entry."""
    graph = _graph(src, tuple(callers))
    defs = graph.defs
    reached = _fixpoint(graph, graph.registered | set(keep) & set(defs))
    return [f"{key} ({defs[key][2]} line{'s' * (defs[key][2] != 1)}): "
            f"nothing but tests reaches it — delete it, or KEEP it with a "
            f"reason" for key, (_, cls, _, _) in sorted(defs.items())
            if key not in reached and key not in keep
            and (cls is None or cls in reached)] + _stale(
        "KEEP", keep, defs, _fixpoint(graph, graph.registered), "is reached")


#: Attribute reads whose receiver the graph cannot resolve and whose
#: spelling names a judged method, which each still reaches: the
#: audit's blind spot, which may only shrink.
SPELLING_FALLBACKS = 1043


def test_every_definition_is_reached_or_kept():
    callers = tuple(SRC.parent.parent / name for name in CALLERS)
    found, graph = _audit(SRC, callers, KEEP), _graph(SRC, callers)
    judged = {name for name, cls, _, exempt in graph.defs.values()
              if cls and not exempt}
    fallbacks = sum(attr in judged for attr in graph.fallbacks)
    assert not found and fallbacks <= SPELLING_FALLBACKS, (
        f"\n{fallbacks} attribute reads fell back to spelling (at most "
        f"{SPELLING_FALLBACKS})\n" + "\n".join(found))


# -- config fields ------------------------------------------------------------

_UCX_TIER = "calibrated: a UCX 1.12 protocol tier's cost or switch point"

#: Config fields that stay although no caller sets them: the calibrated
#: costs and rates of the simulated platform, which ROADMAP item 1(c)
#: fits.  Any other field that only tests set is a constant, not a knob.
MODEL_FIELDS = {
    "NICConfig.line_rate": "calibrated: EDR payload bandwidth",
    "NICConfig.qp_rate": "calibrated: one QP's injection rate (Fig. 7)",
    "NICConfig.mtu": "calibrated: the 4 KiB MTU the paper tunes at",
    "NICConfig.n_ports": "calibrated: rails per HCA, the 2-rail Fig. 7 "
                         "result (tests/test_bench/test_multirail.py)",
    "NICConfig.t_wqe": "calibrated: WQE fetch and DMA programming",
    "NICConfig.t_pkt": "calibrated: per-MTU-packet engine time",
    "NICConfig.t_cqe": "calibrated: CQE write",
    "NICConfig.max_outstanding_rdma": "calibrated: the 16-outstanding cap "
                                      "per QP (Section IV-A)",
    "NICConfig.wire_chunk": "calibrated: the chunk at which WRs "
                            "timeshare a port",
    "NICConfig.rnr_timer": "calibrated: RNR NAK back-off",
    "LinkConfig.latency": "calibrated: one-way fabric latency",
    "LinkConfig.loopback_latency": "calibrated: intra-node latency",
    "HostConfig.cores_per_node": "calibrated: Niagara's 40 cores, where "
                                 "Fig. 8's 128 threads oversubscribe",
    "HostConfig.t_post": "calibrated: ibv_post_send CPU cost",
    "HostConfig.t_poll_hit": "calibrated: a productive ibv_poll_cq",
    "HostConfig.t_poll_miss": "calibrated: an empty ibv_poll_cq",
    "HostConfig.t_atomic": "calibrated: a contended atomic (Fig. 12)",
    "HostConfig.memcpy_rate": "calibrated: bcopy staging bandwidth",
    "HostConfig.oversubscription_penalty": "calibrated: software cost "
                                           "under oversubscription",
    **{f"UCXConfig.{name}": _UCX_TIER for name in (
        "inline_max", "eager_bcopy_max", "eager_zcopy_max",
        "t_inline", "gap_inline", "rx_inline",
        "t_eager_bcopy", "gap_bcopy", "rx_bcopy",
        "t_eager_zcopy", "gap_zcopy", "rx_zcopy",
        "t_rndv", "gap_rndv", "rx_rndv")},
    "UCXConfig.n_lanes": "calibrated: UCX multi-path data lanes",
    "PartitionedConfig.t_rx_wr": "calibrated: the native module's "
                                 "per-WR receive cost",
}


def _config_fields(src: Path) -> dict:
    """``"Class.field" -> field`` over the ``*Config`` dataclasses of
    ``config.py``.  A field holding another config is a section, not a
    knob: its own fields are audited."""
    tree = _parse(src / "config.py")
    classes = {stmt.name: stmt for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)
               and stmt.name.endswith("Config")}
    return {f"{cls}.{item.target.id}": item.target.id
            for cls, node in classes.items() for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and getattr(item.annotation, "id", None) not in classes}


def _forwards(name: str, value: ast.expr, params: set) -> bool:
    """``x=x`` (``x`` a parameter of the enclosing function), ``x=cfg.x``
    and ``x=p.get("x", d)``: a keyword that passes on a value of its own
    name instead of setting one."""
    if isinstance(value, ast.Name):
        return value.id == name and name in params
    if isinstance(value, ast.Attribute):
        return value.attr == name
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get" and bool(value.args)
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == name)


def _params(args: ast.arguments) -> set:
    return {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


def _str_key(node: ast.AST):
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else None


def _kind_params(tree: ast.Module) -> set:
    """The strings of every ``params=`` entry of a ``KINDS`` table, the
    module-level tuples it concatenates included."""
    assigned = {getattr(target, "id", None): stmt.value for stmt in tree.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)) for target
                in (stmt.targets if isinstance(stmt, ast.Assign) else [
                    stmt.target])}
    stack = [node.value for node in ast.walk(assigned.pop("KINDS", ast.Pass()))
             if isinstance(node, ast.keyword) and node.arg == "params"]
    names = set()
    while stack:
        for node in ast.walk(stack.pop()):
            if isinstance(node, ast.Name) and node.id in assigned:
                stack.append(assigned.pop(node.id))
            elif _str_key(node):
                names.add(node.value)
    return names


def _spelled(tree: ast.Module) -> set:
    """Every name a tree sets by spelling, for a callee that takes it
    through ``**kwargs``: a string key of a dict display or of a
    subscript store (a descriptor), a command-line flag
    (``--results-dir`` sets ``results_dir``) and a ``KINDS`` param."""
    names = _kind_params(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            names.update(filter(None, map(_str_key, node.keys)))
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store) and _str_key(node.slice)):
            names.add(node.slice.value)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "add_argument"):
            names.update(flag[2:].replace("-", "_")
                         for flag in map(_str_key, node.args)
                         if flag and flag.startswith("--"))
    return names


def _field_audit(src: Path, callers, model: dict) -> list:
    """Every config field no non-test path sets by a keyword to any call
    (``replace(nic, retry_cnt=2)`` too) that is no forward of its own
    name (:func:`_forwards`), or by a :func:`_spelled` name."""
    graph = _graph(src, tuple(callers))
    fields = _config_fields(src)
    settings = set().union(*(names for module, names in graph.spelled.items()
                             if module != "config"))
    settings.update(slot for module, _, slot, value, stack in graph.args
                    if module != "config" and isinstance(slot, str)
                    and not _forwards(slot, value, set().union(
                        *(_params(args) for _, args in stack))))
    return [f"config:{key}: only tests set it — make it a constant, "
            f"delete it, or list it as a calibrated cost"
            for key, name in sorted(fields.items())
            if name not in settings and key not in model] + _stale(
        "MODEL_FIELDS", model, fields,
        {key for key, name in fields.items() if name in settings},
        "a caller sets", kinds=())


def test_every_config_field_is_set_or_calibrated():
    callers = [SRC.parent.parent / name for name in CALLERS]
    found = _field_audit(SRC, callers, MODEL_FIELDS)
    assert not found, "\n" + "\n".join(found)


# -- options ------------------------------------------------------------------

#: The descriptor builders whose optional keys (``p.get("key", d)``)
#: are options too, by the file that reads them.
DESCRIPTORS = {"autotune/aggregator.py": "autotune.aggregator:build_autotuner",
               "exp/modules.py": "exp.modules:build_module"}

_MUTATION = "surface: a plan_mutation input, which ROADMAP 4(b) deletes"
_MPI = "surface: the MPI API mirror's"
_VERBS = "surface: the verbs API mirror's ibv_qp_cap"
_DRAIN = "reference: PLogGP without deferred drain, checked against it"
_LAGGARDS = "reference: the min-δ recipe at another laggard count"

#: Options that stay although only tests set them, each with a KEEP_KINDS
#: reason.  Any other option that only tests set is a constant.
OPTIONS = {
    "autotune.aggregator:build_autotuner['seed_plan']": _MUTATION,
    "autotune.plan_policy:PlanMutationPolicy(qp_cap)": _MUTATION,
    "plan.mutate:neighbors(qp_cap)": _MUTATION,
    "cli:main(argv)": "surface: a console entry point (None reads sys.argv)",
    "serve.stress:main(argv)":
        "surface: a console entry point (None reads sys.argv)",
    "coll.tree:Pallreduce(op)": f"{_MPI} MPI_Op (elementwise sum)",
    "mpi.process:MPIProcess.pallreduce_init(op)":
        f"{_MPI} MPI_Op (elementwise sum)",
    "mpi.process:MPIProcess.isend(offset)": f"{_MPI} buffer offset",
    "mpi.process:MPIProcess.irecv(offset)": f"{_MPI} buffer offset",
    "ib.qp:QueuePair(max_send_wr)": _VERBS,
    "ib.qp:QueuePair(max_recv_wr)": _VERBS,
    "ib.device:Context.create_qp(max_send_wr)": _VERBS,
    "ib.device:Context.create_qp(max_recv_wr)": _VERBS,
    "ib.verbs:ibv_create_qp(max_send_wr)": _VERBS,
    "ib.verbs:ibv_create_qp(max_recv_wr)": _VERBS,
    "ib.wr:RecvWR(sg_list)": "surface: the verbs API mirror's ibv_recv_wr "
                             "scatter list",
    "faults.schedule:FaultSchedule.chunk_loss(src)":
        "surface: per-edge chunk loss, the fault schedule's edge filter",
    "faults.schedule:FaultSchedule.chunk_loss(dst)":
        "surface: per-edge chunk loss, the fault schedule's edge filter",
    "faults.schedule:FaultSchedule.rnr_window(qp_num)":
        "surface: a per-QP RNR window, the fault schedule's QP filter",
    "core.delta:estimate_min_delta(laggards_per_round)": _LAGGARDS,
    "core.delta:min_delta_per_round(laggards_per_round)": _LAGGARDS,
    "model.ploggp:completion_time(deferred_drain)": _DRAIN,
    "model.ploggp:model_curve(deferred_drain)": _DRAIN,
    "model.ploggp:optimal_transport_partitions(deferred_drain)": _DRAIN,
    "model.ploggp:optimal_transport_partitions(pattern)":
        "reference: PLogGP under another arrival pattern (model.arrival)",
    "mem.buffer:Buffer(fill)": "fake: a known payload byte tests read back",
    "bench.pair:run_partitioned_pair(backed)":
        "fake: byte-backed buffers whose payload the run verifies",
    "sim.core:Environment(initial_time)":
        "surface: the simpy Environment signature the kernel mirrors",
}


def _class_of(key: str) -> str:
    """The top-level definition a key names or sits in."""
    module, _, name = key.partition(":")
    return f"{module}:{name.partition('.')[0]}"


def _defaulted(args: ast.arguments, skip: int):
    """``(name, positional index or None)`` of every defaulted parameter,
    the index counted after the first ``skip`` (``self``)."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _descriptor_keys(tree: ast.Module):
    """Every optional key a ``p.get("key", …)`` call reads."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name) and node.args
                and _str_key(node.args[0])):
            yield node.args[0].value


def _source(value: ast.expr, stack: tuple, name=None):
    """What an argument's value hangs on: the parameter ``(key, name)``
    of the enclosing function it forwards (None if that function has no
    key), the spelled ``name`` that ``name=obj.name`` and
    ``name=p.get("name", d)`` forward, or None when it sets a value."""
    if isinstance(value, ast.Name):
        for key, args in reversed(stack):
            if value.id in _params(args):
                return key and (key, value.id)
    elif name and _forwards(name, value, set()):
        return name
    return None


def _options(src: Path, callers, keep=()) -> dict:
    """``key -> whether a non-test path sets it`` for every option: the
    defaulted parameters of public signatures (not a ``keep`` one's) and
    the descriptors' optional keys.  A call passes ``(callee, slot)`` to
    each function it reaches; a keyword a ``**kwargs`` or an unknown
    callable takes passes its bare name, as a :func:`_spelled` name
    does.  A forward (:func:`_source`) sets its target where its source
    is set: a fixpoint, so ``cli`` → ``partial(run, progress=progress)``
    is set where it starts."""
    graph = _graph(src, tuple(callers))
    functions = {}  # key (a constructor's: its class's) -> node, skip, public
    for key, (name, cls, _, _) in graph.defs.items():
        node = graph.nodes[key]
        if isinstance(node, _FUNCS):
            static = "staticmethod" in map(_decorator_name,
                                           node.decorator_list)
            functions[cls if name == "__init__" else key] = (
                node, int(bool(cls) and not static),
                not key.partition(":")[2].startswith("_")
                and (name == "__init__" or not name.startswith("_")))
    slots = {(key, name): index
             for key, (node, skip, _) in functions.items()
             for name, index in _defaulted(node.args, skip)}
    varkw = {}  # callee -> the names it takes other than through **kwargs
    for key, (node, _, _) in functions.items():
        if node.args.kwarg:
            method = key.partition(":")[2].partition(".")[2]
            for callee in (key, ("spell", method)) if method else (key,):
                varkw.setdefault(callee, set()).update(_params(node.args))
    passed, forwards = set().union(*graph.spelled.values()), []
    for _, callees, slot, value, stack in graph.args:
        keyword = slot if isinstance(slot, str) else None
        source = _source(value, stack, keyword)
        for callee in callees:
            loose = keyword and (callee == "?" or keyword not in
                                 varkw.get(callee, (keyword,)))
            target = keyword if loose else (callee, slot)
            if source is None:
                passed.add(target)
            else:
                forwards.append((source, target))

    def is_set(option) -> bool:
        if isinstance(option, str):
            return option in passed
        if option not in slots:
            return True  # a required parameter, or a caller's
        key, name = option
        method = ("spell", key.partition(":")[2].partition(".")[2])
        return name in passed or any(
            (callee, slot) in passed for callee in (key, method)
            for slot in (name, slots[option]))

    while fired := {target for source, target in forwards
                    if target not in passed and is_set(source)}:
        passed |= fired
    options = {}
    for key, name in slots:
        _, _, public = functions[key]
        if public and key not in keep and _class_of(key) not in keep:
            options[f"{key}({name})"] = is_set((key, name))
    for where, builder in DESCRIPTORS.items():
        if (src / where).exists():
            for name in _descriptor_keys(_parse(src / where)):
                options[f"{builder}[{name!r}]"] = name in passed
    return options


def _option_audit(src: Path, callers, kept: dict, keep=()) -> list:
    options = _options(src, callers, keep)
    return [f"option:{key}: only tests set it — make it a constant, "
            f"or list it in OPTIONS with a reason"
            for key, is_set in sorted(options.items())
            if not is_set and key not in kept] + _stale(
        "OPTIONS", kept, options, {key for key, v in options.items() if v},
        "a caller sets")


def test_every_option_is_set_or_kept():
    callers = [SRC.parent.parent / name for name in CALLERS]
    found = _option_audit(SRC, callers, OPTIONS, KEEP)
    assert not found, "\n" + "\n".join(found)


def _planted(tmp_path, files: dict) -> tuple:
    """``(src, callers)`` of a scratch tree holding ``files``."""
    src = tmp_path / "src" / "repro"
    for name, source in files.items():
        path = (tmp_path if name.split("/")[0] in CALLERS else src) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return src, [tmp_path / name for name in CALLERS]


def _matches(found: list, expected: list):
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line


_REGISTRY = "def kind(name):\n    return lambda fn: fn\n"
_LAZY = "def lazy_exports(package, exports): ...\n"
_LAZY_INIT = ("from lazy import lazy_exports\n"
              "__getattr__, __dir__ = lazy_exports(__name__, "
              "{'mod': ('exported',)})\n"
              "__all__ = ['exported']\n")


@pytest.mark.parametrize("files, keep, expected", [
    ({"mod.py": "def dead(): ...\n"}, {},
     ["mod:dead (1 line): nothing but tests"]),
    ({"mod.py": "def helper(): ...\ndef dead():\n    helper()\n"}, {},
     ["mod:dead (2 lines): nothing", "mod:helper (1 line): nothing"]),
    ({"mod.py": "def rec(n):\n    return rec(n - 1)\n"}, {},
     ["mod:rec (2 lines): nothing"]),
    ({"reg.py": _REGISTRY,
      "mod.py": "from reg import kind\n@kind('x')\ndef adapter(): ...\n"},
     {}, []),
    ({"mod.py": "@property\ndef plain(): ...\n"}, {},
     ["mod:plain (2 lines): nothing"]),
    ({"mod.py": "def probed(): ...\n",
      "perfbench/probe.py": "from repro.mod import probed\n"}, {}, []),
    ({"mod.py": "def probed(): ...\n",
      "perfbench/tests/test_probe.py": "from repro.mod import probed\n"},
     {}, ["mod:probed (1 line): nothing"]),
    ({"mod.py": "def by_string(): ...\nHOOK = getattr(obj, 'by_string')\n"},
     {}, []),
    ({"mod.py": "def by_key(): ...\n",
      "other.py": "TABLE = {'x': 'by_key'}\n"}, {}, []),
    ({"mod.py": "def used(): ...\n", "other.py": "def live(): ...\n",
      "caller.py": "from repro.other import live\nlive()\n"},
     {}, ["mod:used (1 line): nothing"]),
    ({"pkg/__init__.py": "from pkg.mod import exported\n"
                         "__all__ = ['exported']\n",
      "pkg/mod.py": "def exported(): ...\n__all__ = ['exported']\n"},
     {}, ["pkg.mod:exported (1 line): nothing"]),
    ({"mod.py": "def dead(): ...\n"}, {"mod:dead": "fake: a double"}, []),
    ({"mod.py": "def dead(): ...\n"}, {"mod:dead": "because"},
     ["KEEP reason for mod:dead"]),
    ({"mod.py": "def live(): ...\nlive()\n"}, {"mod:live": "fake: x"},
     ["KEEP names mod:live, which is reached"]),
    ({"mod.py": "X = 1\n"}, {"mod:gone": "fake: x"},
     ["KEEP names mod:gone, which no longer exists"]),
    ({"lazy.py": _LAZY, "pkg/__init__.py": _LAZY_INIT,
      "pkg/mod.py": "def exported(): ...\n"},
     {}, ["pkg.mod:exported (1 line): nothing"]),
    ({"lazy.py": _LAZY, "pkg/__init__.py": _LAZY_INIT,
      "pkg/mod.py": "def exported(): ...\n",
      "examples/use.py": "from repro.pkg import exported\nexported()\n"},
     {}, []),
])
def test_the_audit_finds_what_it_claims_to(tmp_path, files, keep, expected):
    _matches(_audit(*_planted(tmp_path, files), keep), expected)


@pytest.mark.parametrize("files, keep, expected", [
    # a name reaches a definition only through its binding
    ({"mod.py": "def barrier(): ...\n",
      "rounds.py": "def run():\n    barrier = 1\n    return barrier\nrun()\n"},
     {}, ["mod:barrier (1 line): nothing"]),
    ({"a.py": "def f(): ...\n", "b.py": "def f(): ...\n",
      "c.py": "from repro import a\na.f()\n"},
     {}, ["b:f (1 line): nothing"]),
    ({"pkg/__init__.py": "from pkg.mod import f\n",
      "pkg/mod.py": "def f(): ...\ndef g(): ...\n",
      "use.py": "from repro.pkg import f\nf()\n"},
     {}, ["pkg.mod:g (1 line): nothing"]),
    # methods and properties
    ({"mod.py": "class C:\n    def live(self): ...\n"
                "    @property\n    def dead(self): ...\nC().live()\n"},
     {}, ["mod:C.dead (2 lines): nothing"]),
    ({"mod.py": "class C:\n    def dead(self):\n        self.helper()\n"
                "    def helper(self): ...\nC()\n"},
     {}, ["mod:C.dead (2 lines): nothing", "mod:C.helper (1 line): nothing"]),
    ({"mod.py": "class D:\n    pass\nclass C:\n    def dead(self):\n"
                "        return D()\nC()\n"},
     {}, ["mod:C.dead (2 lines): nothing", "mod:D (2 lines): nothing"]),
    ({"mod.py": "class C:\n    def hook(self): ...\n    def dead(self): ...\n"
                "getattr(C(), 'hook')()\n"},
     {}, ["mod:C.dead (1 line): nothing"]),
    ({"mod.py": "class C:\n    def probed(self): ...\n"
                "    def dead(self): ...\n",
      "perfbench/probe.py": "from repro.mod import C\nC().probed()\n",
      "perfbench/tests/test_probe.py": "from repro.mod import C\n"
                                       "C().dead()\n"},
     {}, ["mod:C.dead (1 line): nothing"]),
    ({"mod.py": "class C:\n    def __init__(self): ...\n"},
     {}, ["mod:C (2 lines): nothing"]),
    # the allowlist, per method
    ({"mod.py": "class C:\n    def kept(self): ...\nC()\n"},
     {"mod:C.kept": "fake: x"}, []),
    ({"mod.py": "class C:\n    def live(self): ...\nC().live()\n"},
     {"mod:C.live": "fake: x"}, ["KEEP names mod:C.live, which is reached"]),
    # a method is reached through its receiver, not its spelling
    ({"mod.py": "class A:\n    def get(self): ...\nclass B:\n"
                "    def get(self): ...\nA().get()\nB()\n"},
     {}, ["mod:B.get (1 line): nothing"]),
    ({"mod.py": "class C:\n    def spread(self): ...\nC()\n"
                "PLACEMENT = 'spread'\n"}, {}, ["mod:C.spread (1 line)"]),
    ({"mod.py": "class Base:\n    def run(self):\n        self.hook()\n"
                "    def hook(self): ...\nclass Sub(Base):\n"
                "    def hook(self): ...\nclass Other:\n"
                "    def hook(self): ...\nSub().run()\nOther()\n"},
     {}, ["mod:Other.hook (1 line): nothing"]),
    ({"mod.py": "class A:\n    def get(self): ...\nclass B:\n"
                "    def get(self): ...\nclass Holder:\n"
                "    def __init__(self):\n        self.a = A()\n"
                "    def use(self):\n        b = B()\n"
                "        return self.a.get(), b\nHolder().use()\n"},
     {}, ["mod:B.get (1 line): nothing"]),
])
def test_the_audit_resolves_bindings_and_covers_methods(tmp_path, files, keep,
                                                         expected):
    test_the_audit_finds_what_it_claims_to(tmp_path, files, keep, expected)


_CONFIG = ("from dataclasses import dataclass, field\n"
           "@dataclass(frozen=True)\nclass XConfig:\n    knob: int = 1\n"
           "@dataclass(frozen=True)\nclass TopConfig:\n"
           "    x: XConfig = field(default_factory=XConfig)\n"
           "DEFAULT = XConfig(knob=2)\n")


@pytest.mark.parametrize("files, model, expected", [
    ({}, {}, ["config:XConfig.knob: only tests set it"]),
    ({"perfbench/tests/test_x.py": "XConfig(knob=2)\n"}, {},
     ["config:XConfig.knob: only tests set it"]),
    ({"run.py": "def f(cfg):\n    return g(knob=cfg.knob)\n"}, {},
     ["config:XConfig.knob: only tests set it"]),
    ({"run.py": "CFG = XConfig(knob=2)\n"}, {}, []),
    ({"examples/b.py": "DESC = {'x': {'knob': 2}}\n"}, {}, []),
    ({}, {"XConfig.knob": "calibrated: a cost"}, []),
    ({"run.py": "CFG = XConfig(knob=2)\n"},
     {"XConfig.knob": "calibrated: a cost"},
     ["MODEL_FIELDS names XConfig.knob, which a caller sets"]),
    ({"run.py": "CFG = XConfig(knob=2)\n"},
     {"XConfig.gone": "calibrated: a cost"},
     ["MODEL_FIELDS names XConfig.gone, which no longer exists"]),
])
def test_the_field_audit_finds_what_it_claims_to(tmp_path, files, model,
                                                  expected):
    _matches(_field_audit(*_planted(tmp_path, {"config.py": _CONFIG, **files}),
                          model), expected)


_PLANTED = "def f(a, knob=1): ...\n"


@pytest.mark.parametrize("files, kept, expected", [
    # a planted parameter that only a test sets
    ({"mod.py": _PLANTED + "f(1)\n",
      "perfbench/tests/test_f.py": "from repro.mod import f\nf(1, knob=2)\n"},
     {}, ["option:mod:f(knob): only tests set it"]),
    ({"mod.py": "class C:\n    def __init__(self, knob=1): ...\n"
                "    def m(self, depth=2): ...\n    def _h(self, x=1): ...\n"
                "def _private(y=1): ...\n"},
     {}, ["option:mod:C(knob)", "option:mod:C.m(depth)"]),
    # a same-name forward is not a setting; a local of that name is
    ({"mod.py": _PLANTED + "def g(p):\n"
                           "    return f(1, knob=p.get('knob', 1))\n"},
     {}, ["option:mod:f(knob)"]),
    ({"mod.py": _PLANTED + "def g(cfg):\n    return f(1, knob=cfg.knob)\n"},
     {}, ["option:mod:f(knob)"]),
    ({"mod.py": _PLANTED + "def g(knob=1):\n    return f(1, knob=knob)\n"},
     {}, ["option:mod:f(knob)", "option:mod:g(knob)"]),
    ({"mod.py": _PLANTED + "def g():\n    knob = 2\n"
                           "    return f(1, knob=knob)\n"},
     {}, []),
    # keywords, descriptors, flags and KINDS params are settings
    ({"mod.py": _PLANTED, "run.py": "from repro.mod import f\nf(1, knob=2)\n"},
     {}, []),
    ({"mod.py": _PLANTED, "examples/d.py": "DESC = {'knob': 2}\n"}, {}, []),
    ({"mod.py": _PLANTED, "run.py": "def g(args):\n    args['knob'] = 2\n"},
     {}, []),
    ({"mod.py": _PLANTED, "cli.py": "def build(p):\n"
                                    "    p.add_argument('--knob')\n"},
     {}, []),
    ({"mod.py": _PLANTED, "kinds.py": "_ROUNDS = ('knob',)\n"
                                      "KINDS = {'k': Kind(run, params=_ROUNDS"
                                      " + ('x',))}\n"},
     {}, []),
    # a positional argument is a setting of the function it resolves to
    ({"mod.py": _PLANTED, "run.py": "from repro.mod import f\nf(1, 2)\n"},
     {}, []),
    ({"mod.py": _PLANTED + "def g(a, knob=1): ...\n",
      "run.py": "from repro.mod import f\nf(1, 2)\n"},
     {}, ["option:mod:g(knob)"]),
    ({"mod.py": "class B:\n    def __init__(self, a, knob=1): ...\n"
                "class C(B):\n    pass\nC(1, 2)\n"}, {}, []),
    ({"mod.py": "class C:\n    def m(self, knob=1): ...\n"
                "def use(c):\n    c.m(2)\n"}, {}, []),
    ({"mod.py": _PLANTED + "f(*(1, 2))\n"}, {}, []),
    # a keyword is a setting of the function it is passed to, and of no
    # other that shares its name
    ({"mod.py": "class Runner:\n    def __init__(self, timeout=None): ...\n"
                "Runner()\n",
      "run.py": "from concurrent.futures import wait\n"
                "def drain(fs):\n    return wait(fs, timeout=1)\n"
                "def other(timeout=1): ...\nother(timeout=2)\n"},
     {}, ["option:mod:Runner(timeout)"]),
    ({"mod.py": _PLANTED + "def g(a, knob=1): ...\n",
      "run.py": "from functools import partial\nfrom repro.mod import f\n"
                "RUN = partial(f, knob=2)\n"},
     {}, ["option:mod:g(knob)"]),
    ({"mod.py": _PLANTED + "def make(kind, **params): ...\n",
      "run.py": "from repro.mod import make\nmake('x', knob=2)\n"}, {}, []),
    ({"mod.py": _PLANTED,
      "run.py": "def use(fn):\n    return fn(1, knob=2)\n"}, {}, []),
    # a forward sets what it forwards to only where its own option is set
    ({"mod.py": _PLANTED + "def g(a, knob=1):\n    return f(a, knob=knob)\n"
                           "def h(knob=1): ...\nh(knob=2)\n"},
     {}, ["option:mod:f(knob)", "option:mod:g(knob)"]),
    ({"mod.py": _PLANTED + "def g(a, knob=1):\n    return f(a, knob)\n"},
     {}, ["option:mod:f(knob)", "option:mod:g(knob)"]),
    ({"mod.py": "from functools import partial\n" + _PLANTED
                + "def g(a, knob=1):\n    return f(a, knob=knob)\n"
                  "def h(b, knob=1):\n    return partial(g, b, knob=knob)\n",
      "run.py": "from repro.mod import h\nh(1, knob=2)\n"}, {}, []),
    # a descriptor builder's optional keys
    ({"autotune/aggregator.py": "def build_autotuner(p):\n"
                                "    return p.get('span', 2), p['need']\n"},
     {}, ["option:autotune.aggregator:build_autotuner['span']"]),
    ({"autotune/aggregator.py": "def build_autotuner(p):\n"
                                "    return p.get('span', 2)\n",
      "exp/rows.py": "ROW = {'span': 3}\n"}, {}, []),
    # the exemption list: kept, stale, set, badly reasoned
    ({"mod.py": _PLANTED}, {"mod:f(knob)": "fake: a test hook"}, []),
    ({"mod.py": _PLANTED}, {"mod:f(knob)": "because"},
     ["OPTIONS reason for mod:f(knob)"]),
    ({"mod.py": _PLANTED},
     {"mod:f(knob)": "fake: x", "mod:f(gone)": "fake: x"},
     ["OPTIONS names mod:f(gone), which no longer exists"]),
    ({"mod.py": _PLANTED + "f(1, knob=3)\n"}, {"mod:f(knob)": "fake: x"},
     ["OPTIONS names mod:f(knob), which a caller sets"]),
    # a call on a receiver sets no namesake class's option
    ({"mod.py": "class A:\n    def m(self, knob=1): ...\nclass B:\n"
                "    def m(self, knob=1): ...\nA().m(knob=2)\nB()\n"},
     {}, ["option:mod:B.m(knob)"]),
])
def test_the_option_audit_finds_what_it_claims_to(tmp_path, files, kept,
                                                   expected):
    _matches(_option_audit(*_planted(tmp_path, files), kept), expected)


def test_a_kept_definition_keeps_its_options(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(_PLANTED + "class C:\n"
                                "    def m(self, depth=2): ...\n")
    assert _option_audit(src, [], {}, keep={"mod:f", "mod:C"}) == []


def _keys_read(nodes, names=("p", "params")) -> set:
    """The string keys ``nodes`` read from a dict named in ``names``:
    ``d.get("k", …)``, ``d.pop("k")`` and ``d["k"]``."""
    keys = set()
    for node in nodes:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names and node.args
                and _str_key(node.args[0])):
            keys.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.value, ast.Name)
              and node.value.id in names and _str_key(node.slice)):
            keys.add(node.slice.value)
    return keys


def _branch_reads(path: Path, function: str) -> dict:
    """``name -> keys`` each ``if name == "…":`` branch of ``function``
    reads, the module's own helpers it calls included; the ``None`` row
    holds what the function reads outside those branches."""
    tree = _parse(path)
    helpers = {stmt.name: stmt for stmt in tree.body
               if isinstance(stmt, ast.FunctionDef)}
    inside, branches = set(), {}
    for node in ast.walk(helpers[function]):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name)
                and node.test.left.id == "name"
                and isinstance(node.test.ops[0], ast.Eq)
                and _str_key(node.test.comparators[0])):
            body = [n for stmt in node.body for n in ast.walk(stmt)]
            inside.update(map(id, body))
            called = [helpers[n.func.id] for n in body
                      if isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Name)
                      and n.func.id in helpers]
            branches[node.test.comparators[0].value] = _keys_read(
                body + [n for f in called for n in ast.walk(f)])
    branches[None] = _keys_read(n for n in ast.walk(helpers[function])
                            if id(n) not in inside)
    return branches


def test_build_autotuner_accepts_exactly_the_keys_it_reads():
    from repro.autotune.aggregator import COMMON_KEYS, POLICY_KEYS

    reads = _branch_reads(SRC / "autotune" / "aggregator.py",
                          "build_autotuner")
    assert reads.pop(None) == set(COMMON_KEYS)
    assert reads == {name: set(keys) for name, keys in POLICY_KEYS.items()}


def test_build_module_accepts_exactly_the_keys_it_reads():
    from repro.autotune.aggregator import COMMON_KEYS, POLICY_KEYS
    from repro.exp.modules import MODULE_KEYS

    path = SRC / "exp" / "modules.py"
    reads = _branch_reads(path, "build_module")
    assert reads.pop(None) == set()
    # ``adaptive`` reads ``initial_delta`` and hands the rest to the
    # δ-tracker, less the keys its own dict display pins.
    adaptive = next(node for node in ast.walk(_parse(path))
                    if isinstance(node, ast.Dict) and "quantile" in {
                        _str_key(k) for k in node.keys if k is not None})
    passed = (set(POLICY_KEYS["delta_tracker"]) | set(COMMON_KEYS)) - {
        _str_key(k) for k in adaptive.keys if k is not None}
    assert reads.pop("adaptive") == {"initial_delta"}
    assert set(MODULE_KEYS["adaptive"]) - {"initial_delta"} <= passed
    assert reads.pop("autotune") == set() and MODULE_KEYS["autotune"] is None
    assert reads == {name: set(keys) for name, keys in MODULE_KEYS.items()
                     if name not in ("adaptive", "autotune")}
