"""A whole-tree static floor that needs nothing but ``ast``.

CI's ruff job lints ``src`` and ``tests``; this pass covers *all* of
``src/repro`` with what is installed everywhere: an import nothing in
its module uses, an ``__all__`` entry the module does not define, a
mutable default argument and a bare ``except`` fail tier-1.

The reachability audit below is the fourth check: a top-level
definition, method or property that nothing but tests reaches fails
too, unless ``KEEP`` names it with a reason.  The fifth is its field
half: a config field that only tests set fails, unless
``MODEL_FIELDS`` lists it as a calibrated cost.  The sixth extends
that to every option: a defaulted parameter of a public function,
method or constructor, or an optional descriptor key, that only tests
set fails, unless ``OPTIONS`` names it with a reason.
"""

import ast
from functools import lru_cache
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


def _resolve(scopes: dict, module: str, name: str, seen=()):
    """What ``name`` means at the top of ``module``: ``("def", key)``
    for a top-level definition, ``("mod", module)`` for a src module,
    or None (a local, a builtin, a variable, another package)."""
    if module not in scopes or (module, name) in seen:
        return None
    defs, bound = scopes[module]
    if name in defs:
        return ("def", f"{module}:{name}")
    if name not in bound:
        return None
    target, attr = bound[name]
    if attr is None:
        return ("mod", target) if target in scopes else None
    return _attribute(scopes, target, attr, seen + ((module, name),))


def _attribute(scopes: dict, module: str, attr: str, seen=()):
    """What ``module.attr`` means: a name the module binds, else a
    submodule."""
    target = _resolve(scopes, module, attr, seen)
    sub = attr if module == "repro" else f"{module}.{attr}"
    return target or (("mod", sub) if sub in scopes else None)


def _reads(node: ast.AST, scopes: dict, module: str, strings: bool = True):
    """What ``node`` reads in ``module``: ``("key", key)`` for a name or
    a module's attribute chain resolved through its import binding to
    a top-level definition, and ``("spell", name)`` for any other
    attribute and (unless ``strings`` is false) an identifier-shaped
    string (``getattr``/registry keys), which match by spelling."""
    stack = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Name):
            target = _resolve(scopes, module, sub.id)
            if target and target[0] == "def":
                yield ("key", target[1])
        elif isinstance(sub, ast.Attribute):
            chain = []
            while isinstance(sub, ast.Attribute):
                chain.append(sub.attr)
                sub = sub.value
            target = None
            if isinstance(sub, ast.Name):
                target = _resolve(scopes, module, sub.id)
            else:
                stack.append(sub)
            while target and target[0] == "mod" and chain:
                target = _attribute(scopes, target[1], chain.pop())
            if target and target[0] == "def":
                yield ("key", target[1])
            yield from (("spell", attr) for attr in chain)
        elif isinstance(sub, ast.Constant):
            if strings and isinstance(sub.value, str) \
                    and sub.value.isidentifier():
                yield ("spell", sub.value)
        elif not isinstance(sub, (ast.Import, ast.ImportFrom)):
            stack.extend(ast.iter_child_nodes(sub))


def _span(node: ast.AST) -> int:
    first = min([d.lineno for d in node.decorator_list] + [node.lineno])
    return node.end_lineno - first + 1


def _registered(node: ast.AST) -> bool:
    return any(_decorator_name(d) not in PLAIN_DECORATORS
               for d in node.decorator_list)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    """A file's tree, parsed once per session (the audits share it)."""
    return ast.parse(path.read_text(), filename=str(path))


def _caller_paths(callers):
    for caller in callers:
        for path in sorted(caller.rglob("*.py")):
            if "tests" not in path.relative_to(caller).parts:
                yield path


def _definitions(src: Path, callers):
    """The audit's graph over ``src`` and the caller trees.

    Returns ``defs`` (key -> [name, class key or None, lines, exempt]),
    the registered keys and the reads as (owning key or None, target).
    A key is ``"module:name"`` for a top-level definition and
    ``"module:Class.method"`` for a method or property; a dunder or a
    registered method is exempt, reached with its class.
    """
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__") or "repro"
        files[module] = (path, _parse(path))
    for path in _caller_paths(callers):
        files[f"<{path}>"] = (path, _parse(path))
    scopes = {module: ({stmt.name for stmt in tree.body
                        if isinstance(stmt, _DEFS)}, _bindings(tree, module))
              for module, (path, tree) in files.items()}

    defs, registered, reads = {}, set(), []

    def add(key, name, cls, node, exempt):
        entry = defs.setdefault(key, [name, cls, 0, exempt])
        entry[2] += _span(node)  # a property and its setter share a key

    for module, (path, tree) in files.items():
        if module.startswith("<"):  # a caller: every import is a use
            reads += [(None, r) for r in _reads(tree, scopes, module)]
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        target = _attribute(scopes, _key_module(node.module),
                                            alias.name)
                        if target and target[0] == "def":
                            reads.append((None, ("key", target[1])))
            continue
        init = path.name == "__init__.py"
        for stmt in tree.body:
            if _assigns_all(stmt) or (
                    init and isinstance(stmt, (ast.Import, ast.ImportFrom))):
                continue  # an export list reaches nothing
            if not isinstance(stmt, _DEFS):
                # A lazy map's strings are an export list too; the call
                # that builds it is still a read.
                lazy = init and _binds_getattr(stmt)
                reads += [(None, r) for r in _reads(stmt, scopes, module,
                                                    strings=not lazy)]
                continue
            key = f"{module}:{stmt.name}"
            add(key, stmt.name, None, stmt, False)
            if _registered(stmt):
                registered.add(key)  # found by lookup
            if isinstance(stmt, _FUNCS):
                reads += [(key, r) for r in _reads(stmt, scopes, module)]
                continue
            body = stmt.decorator_list + stmt.bases + stmt.keywords
            methods = {item.name for item in stmt.body
                       if isinstance(item, _FUNCS)}
            for item in stmt.body:
                if not isinstance(item, _FUNCS):
                    body.append(item)
                    # ``alias = method`` in a class body names the method
                    reads += [(key, ("spell", sub.id))
                              for sub in ast.walk(item)
                              if isinstance(sub, ast.Name)
                              and sub.id in methods]
                    continue
                method = f"{key}.{item.name}"
                dunder = item.name.startswith("__") and \
                    item.name.endswith("__")
                add(method, item.name, key, item,
                    dunder or _registered(item))
                body += item.decorator_list
                reads += [(method, r) for part in (item.args, *item.body)
                          + ((item.returns,) if item.returns else ())
                          for r in _reads(part, scopes, module)]
            reads += [(key, r) for part in body
                      for r in _reads(part, scopes, module)]
    return defs, registered, reads


def _fixpoint(defs: dict, roots, reads) -> set:
    """The keys reached from module-level code, caller trees and
    ``roots``.  A definition is reached by a read from live code other
    than its own body: a top-level one by its resolved key or its
    spelling, a method by its spelling and only while its class is
    reached.  Code that only dead code uses stays dead."""
    by_owner, by_name, methods_of = {}, {}, {}
    for owner, target in reads:
        by_owner.setdefault(owner, []).append(target)
    for key, (name, cls, _, _) in defs.items():
        by_name.setdefault(name, []).append(key)
        if cls is not None:
            methods_of.setdefault(cls, []).append(key)
    readers, reached, pending = {}, set(), []

    def live(owner):
        for target in by_owner.get(owner, ()):
            readers.setdefault(target, set()).add(owner)
            kind, value = target
            pending.extend([value] if kind == "key"
                           else by_name.get(value, ()))
        pending.extend(methods_of.get(owner, ()))

    live(None)
    for key in roots:
        reached.add(key)
        live(key)
    while pending:
        key = pending.pop()
        if key in reached or key not in defs:
            continue
        name, cls, _, exempt = defs[key]
        if cls is not None and cls not in reached:
            continue
        by = readers.get(("spell", name), set())
        if cls is None:
            by = by | readers.get(("key", key), set())
        if exempt or by - {key}:
            reached.add(key)
            live(key)
    return reached


def _unreached(src: Path, callers, keep=()) -> tuple[dict, set, set]:
    """(every definition, the ones unreached with ``keep`` as roots, and
    the ones reached without it).  A method of an unreached class is
    left out: the class stands for it."""
    defs, registered, reads = _definitions(src, callers)
    reached = _fixpoint(defs, registered | set(keep) & set(defs), reads)
    unreached = {key for key, (_, cls, _, _) in defs.items()
                 if key not in reached and (cls is None or cls in reached)}
    return defs, unreached, _fixpoint(defs, registered, reads)


def _lines(n: int) -> str:
    return f"{n} line" if n == 1 else f"{n} lines"


def _audit(src: Path, callers, keep: dict) -> list:
    defs, unreached, bare = _unreached(src, callers, keep)
    found = [f"{key} ({_lines(defs[key][2])}): nothing but tests reaches "
             f"it — delete it, or KEEP it with a reason"
             for key in sorted(unreached - set(keep))]
    for key, reason in sorted(keep.items()):
        if key not in defs:
            found.append(f"KEEP names {key}, which no longer exists")
        elif key in bare:
            found.append(f"KEEP names {key}, which is reached")
        if reason.split(":")[0] not in KEEP_KINDS:
            found.append(f"KEEP reason for {key} is not one of "
                         f"{KEEP_KINDS}: {reason!r}")
    return found


def test_every_definition_is_reached_or_kept():
    callers = [SRC.parent.parent / name for name in CALLERS]
    found = _audit(SRC, callers, KEEP)
    assert not found, "\n" + "\n".join(found)


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


def _forwards(node: ast.keyword, params: set) -> bool:
    """``x=x`` (``x`` a parameter of the enclosing function), ``x=cfg.x``
    and ``x=p.get("x", d)``: a keyword that passes on a value of its own
    name instead of setting one."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id == node.arg and node.arg in params
    if isinstance(value, ast.Attribute):
        return value.attr == node.arg
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get" and bool(value.args)
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == node.arg)


def _with_params(node: ast.AST, params: frozenset = frozenset()):
    """Every node under ``node`` with the parameter names of the
    functions that enclose it."""
    if isinstance(node, (*_FUNCS, ast.Lambda)):
        args = node.args
        params = params | {arg.arg for arg in (
            args.posonlyargs + args.args + args.kwonlyargs)}
    yield node, params
    for child in ast.iter_child_nodes(node):
        yield from _with_params(child, params)


def _str_key(node: ast.AST):
    return node.value if isinstance(node, ast.Constant) \
        and isinstance(node.value, str) else None


def _kind_params(tree: ast.Module) -> set:
    """The strings of every ``params=`` entry of a ``KINDS`` table, the
    module-level tuples it concatenates included."""
    tuples = {stmt.targets[0].id: stmt.value for stmt in tree.body
              if isinstance(stmt, ast.Assign)
              and isinstance(stmt.targets[0], ast.Name)}
    names, stack = set(), []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            getattr(stmt, "target", None)]
        if any(getattr(target, "id", None) == "KINDS" for target in targets):
            stack += [node.value for node in ast.walk(stmt.value)
                      if isinstance(node, ast.keyword)
                      and node.arg == "params"]
    seen = set()
    while stack:
        for node in ast.walk(stack.pop()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif (isinstance(node, ast.Name) and node.id in tuples
                  and node.id not in seen):
                seen.add(node.id)
                stack.append(tuples[node.id])
    return names


def _settings(src: Path, callers) -> set:
    """Every name a non-test path sets: a keyword argument that does not
    just forward a value of its own name (:func:`_forwards`), a string
    key of a dict display or of a subscript store (a descriptor), a
    command-line flag (``--results-dir`` sets ``results_dir``) and a
    ``KINDS`` param."""
    paths = [p for p in sorted(src.rglob("*.py")) if p != src / "config.py"]
    names = set()
    for path in paths + list(_caller_paths(callers)):
        tree = _parse(path)
        names |= _kind_params(tree)
        for node, params in _with_params(tree):
            if isinstance(node, ast.keyword) and node.arg \
                    and not _forwards(node, params):
                names.add(node.arg)
            elif isinstance(node, ast.Dict):
                names.update(filter(None, map(_str_key, node.keys)))
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)
                  and _str_key(node.slice)):
                names.add(node.slice.value)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "add_argument"):
                names.update(flag[2:].replace("-", "_")
                             for flag in map(_str_key, node.args)
                             if flag and flag.startswith("--"))
    return names


def _field_audit(src: Path, callers, model: dict) -> list:
    fields = _config_fields(src)
    settings = _settings(src, callers)
    found = [f"config:{key}: only tests set it — make it a constant, "
             f"delete it, or list it as a calibrated cost"
             for key, name in sorted(fields.items())
             if name not in settings and key not in model]
    for key in sorted(model):
        if key not in fields:
            found.append(f"MODEL_FIELDS names {key}, which no longer exists")
        elif fields[key] in settings:
            found.append(f"MODEL_FIELDS names {key}, which a caller sets")
    return found


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
    "ib.verbs:ibv_create_qp(max_send_wr)": _VERBS,
    "ib.verbs:ibv_create_qp(max_recv_wr)": _VERBS,
    "faults.schedule:FaultSchedule.chunk_loss(src)":
        "surface: per-edge chunk loss, the fault schedule's edge filter",
    "faults.schedule:FaultSchedule.chunk_loss(dst)":
        "surface: per-edge chunk loss, the fault schedule's edge filter",
    "core.delta:estimate_min_delta(laggards_per_round)":
        "reference: the min-δ recipe at another laggard count",
    "model.ploggp:completion_time(deferred_drain)": _DRAIN,
    "model.ploggp:model_curve(deferred_drain)": _DRAIN,
    "model.ploggp:optimal_transport_partitions(deferred_drain)": _DRAIN,
    "model.ploggp:optimal_transport_partitions(pattern)":
        "reference: PLogGP under another arrival pattern (model.arrival)",
    "mem.buffer:Buffer(fill)": "fake: a known payload byte tests read back",
    "sim.core:Environment(initial_time)":
        "surface: the simpy Environment signature the kernel mirrors",
    "sim.monitor:Trace.filter(predicate)":
        "surface: trace analysis, the telemetry spine's input (ROADMAP)",
    "sim.profile:KernelProfile(clock)":
        "fake: a deterministic clock for the profile tests",
}


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


def _signatures(tree: ast.Module, module: str):
    """``(owner, name, index)`` for every defaulted parameter of a public
    function, method or constructor; ``owner`` is the function's key (a
    class's for ``__init__``)."""
    for stmt in tree.body:
        if not isinstance(stmt, _DEFS) or stmt.name.startswith("_"):
            continue
        owner = f"{module}:{stmt.name}"
        if isinstance(stmt, _FUNCS):
            for name, index in _defaulted(stmt.args, 0):
                yield owner, name, index
            continue
        for item in stmt.body:
            if not isinstance(item, _FUNCS) or (
                    item.name.startswith("_") and item.name != "__init__"):
                continue
            static = "staticmethod" in map(_decorator_name,
                                           item.decorator_list)
            method = owner if item.name == "__init__" else \
                f"{owner}.{item.name}"
            for name, index in _defaulted(item.args, 0 if static else 1):
                yield method, name, index


def _descriptor_keys(tree: ast.Module):
    """Every optional key a ``p.get("key", …)`` call reads."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name) and node.args
                and _str_key(node.args[0])):
            yield node.args[0].value


def _callee(node: ast.expr, scopes: dict, module: str):
    """The key a call's function resolves to through import bindings,
    ``("spell", name)`` for a method call nothing resolves, or None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    target = (_resolve(scopes, module, node.id)
              if isinstance(node, ast.Name) else None)
    while target and target[0] == "mod" and chain:
        target = _attribute(scopes, target[1], chain.pop())
    if target and target[0] == "def" and not chain:
        return target[1]
    if len(chain) == 1 and target is None:
        return ("spell", chain[0])
    return None


def _init_owners(classes: dict, scopes: dict) -> dict:
    """``class key -> key`` of the class whose ``__init__`` it runs: its
    own, else the first base's that has one."""
    owners = {}

    def owner(key):
        if key not in owners:
            module, stmt = classes[key]
            owners[key] = key if any(
                isinstance(item, _FUNCS) and item.name == "__init__"
                for item in stmt.body) else None
            for base in stmt.bases:
                target = _callee(base, scopes, module)
                if owners[key] is None and target in classes:
                    owners[key] = owner(target)
        return owners[key]

    return {key: owner(key) for key in classes}


def _positional(trees: dict) -> set:
    """``(owner, index)`` for every positional argument a call in
    ``trees`` passes to a function it resolves to (a constructor
    through the bases, a method by its spelling); a ``*args`` covers
    every index from its own on."""
    scopes = {module: ({stmt.name for stmt in tree.body
                        if isinstance(stmt, _DEFS)}, _bindings(tree, module))
              for module, tree in trees.items()}
    inits = _init_owners(
        {f"{module}:{stmt.name}": (module, stmt)
         for module, tree in trees.items() for stmt in tree.body
         if isinstance(stmt, ast.ClassDef)}, scopes)
    passed = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = _callee(node.func, scopes, module)
            callee = inits.get(callee, callee)
            star = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed.update((callee, index) for index in range(
                64 if star else len(node.args)))
    return passed


def _options(src: Path, callers, keep=()) -> dict:
    """``key -> whether a non-test path sets it`` for every option of the
    tree: the defaulted parameters of its public signatures, except a
    ``keep`` definition's, and its descriptors' optional keys."""
    files = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        files[".".join(p for p in parts if p != "__init__") or "repro"] = \
            _parse(path)
    settings = _settings(src, callers)
    passed = _positional({**files, **{f"<{path}>": _parse(path)
                                      for path in _caller_paths(callers)}})
    options = {}
    for module, tree in files.items():
        for owner, name, index in _signatures(tree, module):
            cls, _, method = owner.partition(":")[2].partition(".")
            if owner in keep or f"{module}:{cls}" in keep:
                continue
            options[f"{owner}({name})"] = name in settings or (
                (owner, index) in passed
                or (("spell", method), index) in passed)
    for where, builder in DESCRIPTORS.items():
        if (src / where).exists():
            for name in _descriptor_keys(_parse(src / where)):
                options[f"{builder}[{name!r}]"] = name in settings
    return options


def _option_audit(src: Path, callers, kept: dict, keep=()) -> list:
    options = _options(src, callers, keep)
    found = [f"option:{key}: only tests set it — make it a constant, "
             f"or list it in OPTIONS with a reason"
             for key, is_set in sorted(options.items())
             if not is_set and key not in kept]
    for key, reason in sorted(kept.items()):
        if key not in options:
            found.append(f"OPTIONS names {key}, which no longer exists")
        elif options[key]:
            found.append(f"OPTIONS names {key}, which a caller sets")
        if reason.split(":")[0] not in KEEP_KINDS:
            found.append(f"OPTIONS reason for {key} is not one of "
                         f"{KEEP_KINDS}: {reason!r}")
    return found


def test_every_option_is_set_or_kept():
    callers = [SRC.parent.parent / name for name in CALLERS]
    found = _option_audit(SRC, callers, OPTIONS, KEEP)
    assert not found, "\n" + "\n".join(found)


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
    src = tmp_path / "src" / "repro"
    for name, source in {"config.py": _CONFIG, **files}.items():
        top = name.split("/")[0]
        path = (tmp_path if top in CALLERS else src) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    found = _field_audit(src, [tmp_path / name for name in CALLERS], model)
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line


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
])
def test_the_option_audit_finds_what_it_claims_to(tmp_path, files, kept,
                                                   expected):
    src = tmp_path / "src" / "repro"
    for name, source in files.items():
        top = name.split("/")[0]
        path = (tmp_path if top in CALLERS else src) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    found = _option_audit(src, [tmp_path / name for name in CALLERS], kept)
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line


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
