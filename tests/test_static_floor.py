"""A whole-tree static floor that needs nothing but ``ast``.

CI's ruff job covers the packages it names; this pass covers *all* of
``src/repro`` with what is installed everywhere: an import nothing in
its module uses, an ``__all__`` entry the module does not define, a
mutable default argument and a bare ``except`` fail tier-1.
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


def _dunder_all(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            names += [elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant)
                      and isinstance(elt.value, str)]
    return names


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
        defined = _defined_names(tree)
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
    # Packages CI's ruff job does not name are the point of this file.
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
])
def test_the_pass_finds_what_it_claims_to(tmp_path, source, expected):
    path = tmp_path / "mod.py"
    path.write_text(source)
    found = _findings(path, tmp_path)
    assert len(found) == len(expected), found
    for line, fragment in zip(found, expected):
        assert fragment in line
