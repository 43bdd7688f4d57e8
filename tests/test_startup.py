"""Start-up pays only for what runs.

A simulation point needs the simulator, not the experiment harness:
``repro.exp`` and ``repro.bench`` resolve their exports on first use
(:mod:`repro.lazy`), and the NIC takes its chunk vocabulary from
``repro.ib.constants`` rather than from the fault schedule.  Every case
that counts modules runs in a fresh interpreter with ``PYTHONPATH=src``
(docs/PERF.md §9).
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What perfbench/workloads.py:import_runners imports, per workload.  The
#: child then opens ``repro.exp.cache`` to guard the result cache.
COMMON = ("repro", "repro.exp.modules")
SETUP_IMPORTS = {
    "p2p_small": (),
    "p2p_large": (),
    "sweep3d": (),
    "fleet_contended": ("repro.fleet.run",),
    "p2p_faulted": ("repro.faults",),
    "stencil_tuned": ("repro.autotune", "repro.coll"),
    "serve_mixed": ("repro.serve.service",),
}
#: The simulation workloads BENCHMARK.json gates.
GATED = ("p2p_small", "p2p_large", "sweep3d")
#: The experiment harness: none of it is a simulation point's business.
HARNESS = tuple(f"repro.exp.{name}" for name in (
    "runner", "registry", "experiments", "kinds", "store", "plans",
    "profiles", "fingerprint"))
#: Packages whose exports resolve on first use.
LAZY = ("repro.exp", "repro.bench")
#: The ``repro`` and ``numpy`` modules a gated pass adds to set-up's: the
#: driver it runs, and no layer it does not.  A p2p point neither draws
#: noise (so no ``numpy.random``) nor builds a collective (no
#: ``repro.coll``); a sweep point draws, but builds no collective either.
PASS_LOADS = {
    "p2p_small": {"repro.bench", "repro.bench.overhead", "repro.bench.pair"},
    "p2p_large": {"repro.bench", "repro.bench.overhead", "repro.bench.pair"},
    "sweep3d": {"repro.bench", "repro.bench.sweep"},
}


def _fresh(code: str, *argv: str) -> dict:
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _parent_setup() -> set:
    lines = (ROOT / "tests" / "startup_parent_setup.txt").read_text()
    names = {line for line in lines.splitlines()
             if line and not line.startswith("#")}
    if sys.version_info[:2] != (3, 11):
        # The stdlib's own import graph moves between versions.
        names = {name for name in names
                 if name.split(".")[0] in ("repro", "numpy")}
    return names


# -- what set-up loads, and what a pass adds ----------------------------------

_SETUP = """
import importlib, json, sys
from perfbench import workloads
workload, run, names = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
for name in names:
    importlib.import_module(name)
setup = set(sys.modules)
added = []
if run:
    record = workloads.run_point(workloads.points(workload, 0, True)[0], 0)
    assert record["error"] is None, record["error"]
    added = sorted(set(sys.modules) - setup)
print(json.dumps({"setup": sorted(setup), "pass": added}))
"""


def test_setup_imports_mirror_perfbench():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    fn = next(node for node in tree.body
              if getattr(node, "name", None) == "import_runners")
    imported = {alias.name for node in ast.walk(fn)
                if isinstance(node, ast.Import) for alias in node.names}
    assert imported == set(COMMON).union(*SETUP_IMPORTS.values())


@functools.lru_cache(maxsize=None)
def _setup_and_pass(workload: str) -> dict:
    """What ``workload``'s set-up loads and (gated only) what its first
    point adds, from one fresh child shared by the tests below."""
    run = workload in GATED
    names = COMMON + SETUP_IMPORTS[workload] + ("repro.exp.cache",)
    return _fresh(_SETUP, workload, "1" if run else "0", *names)


@pytest.mark.parametrize("workload", sorted(SETUP_IMPORTS))
def test_setup_loads_no_harness(workload):
    out = _setup_and_pass(workload)
    setup = set(out["setup"])
    assert not setup & set(HARNESS)
    if workload != "p2p_faulted":
        assert "repro.faults.schedule" not in setup
    # A module set-up no longer loads must not turn up inside the pass.
    assert not set(out["pass"]) & _parent_setup()


@pytest.mark.parametrize("workload", GATED)
def test_pass_loads_only_the_layer_it_runs(workload):
    # A sweep point draws its noise, so numpy.random loads there.
    roots = ("repro",) if workload == "sweep3d" else ("repro", "numpy")
    added = {name for name in _setup_and_pass(workload)["pass"]
             if name.split(".")[0] in roots}
    assert added == PASS_LOADS[workload]


def test_import_repro_bench_stays_small():
    out = _fresh("import json, sys, repro.bench\n"
                 "print(json.dumps(sorted(sys.modules)))")
    loaded = [name for name in out
              if name == "repro" or name.startswith("repro.")]
    assert len(loaded) <= 58, loaded


# -- lazy exports are the same exports ----------------------------------------

def _lazy_map(package: str) -> dict:
    """``{submodule: names}`` as the package's ``__init__`` spells it."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    table = next(node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Dict))
    return ast.literal_eval(table)


_EXPORTS = """
import importlib, json, sys, types
order, tables = sys.argv[1], json.loads(sys.argv[2])
bad = []
for package, table in tables.items():
    pairs = [(f"{package}.{module}", name)
             for module, names in table.items() for name in names]

    def held():
        return {name: getattr(importlib.import_module(module), name)
                for module, name in pairs}

    def read():
        pkg = importlib.import_module(package)
        return {name: getattr(pkg, name) for _, name in pairs}

    first, then = (held, read) if order == "submodule" else (read, held)
    a, b = first(), then()
    bad += [f"{package}.{name} differs" for name in a if a[name] is not b[name]]
    bad += [f"{package}.{name} is defined in {a[name].__module__}"
            for module, name in pairs
            if isinstance(a[name], (type, types.FunctionType))
            and a[name].__module__ != module]
    star = {}
    exec(f"from {package} import *", star)
    star.pop("__builtins__")
    pkg = importlib.import_module(package)
    if set(star) != set(pkg.__all__):
        bad.append(f"{package}: import * binds {sorted(star)}")
    bad += [f"{package}: * binds another {name}" for name in star
            if star[name] is not getattr(pkg, name)]
print(json.dumps(bad))
"""


@pytest.mark.parametrize("order", ["submodule", "package"])
def test_lazy_exports_resolve_to_the_defining_object(order):
    tables = {package: _lazy_map(package) for package in LAZY}
    assert _fresh(_EXPORTS, order, json.dumps(tables)) == []


@pytest.mark.parametrize("package", LAZY)
def test_lazy_package_covers_all_and_names_unknowns(package):
    module = importlib.import_module(package)
    exported = {name for names in _lazy_map(package).values()
                for name in names}
    assert set(module.__all__) <= exported
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"'{package}' has no "
                                             "attribute 'no_such_name'"):
        getattr(module, "no_such_name")


def test_repro_plan_stays_eager():
    """``parse`` and ``lower`` are exports *and* submodules of
    ``repro.plan``.  A lazy map would lose to the import system: the
    first ``import repro.plan.parse`` binds the submodule as the
    package's ``parse`` attribute, so ``__getattr__`` is never asked.
    The eager ``__init__`` imports the functions after the submodules
    load, so its names always win."""
    import repro.plan
    import repro.plan.parse  # noqa: F401

    shadowed = {name for name in repro.plan.__all__
                if (SRC / "repro" / "plan" / f"{name}.py").exists()}
    assert shadowed == {"parse", "lower"}
    for name in shadowed:
        assert not isinstance(getattr(repro.plan, name), types.ModuleType)


# -- results do not depend on import order ------------------------------------

_GOLDENS = """
import json, sys
if sys.argv[1] == "harness-first":
    import repro.cli
    import repro.exp.experiments
    from repro.exp import *  # noqa: F403
from tests.test_bench.test_golden import encode, run_drivers_mini
harness = sys.argv[2:]
runs, early = [], None
for _ in range(2):
    drivers = encode(run_drivers_mini())
    if early is None:
        early = sorted(name for name in harness if name in sys.modules)
    from repro.exp import FAST, Runner, get_experiment
    spec = get_experiment("fig06").build(FAST)
    fig06 = spec.collect(Runner().run(spec.points))["series"]
    runs.append([drivers, encode(fig06)])
print(json.dumps({"runs": runs, "harness_during_drivers": early}))
"""


@pytest.mark.parametrize("order", ["simulator-only", "harness-first"])
def test_goldens_do_not_depend_on_import_order(order):
    """(a) before the harness is ever imported, (b) after ``repro.cli``
    and all of ``repro.exp`` are, and (c) twice in one interpreter: each
    run is float-hex equal to the checked-in goldens."""
    golden = ROOT / "tests" / "test_bench" / "goldens"
    want = [json.loads((golden / name).read_text())
            for name in ("drivers_mini.json", "fig06_mini.json")]
    out = _fresh(_GOLDENS, order, *HARNESS)
    if order == "simulator-only":
        assert out["harness_during_drivers"] == []
    assert out["runs"] == [want, want]
