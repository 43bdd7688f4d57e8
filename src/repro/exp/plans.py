"""Plan-IR views of registered experiments (``repro-bench plan``).

:func:`experiment_plans` resolves every sweep point of a registered
experiment into the communication plan the transport engine would run
it with: module descriptors are rebuilt
(:func:`repro.exp.modules.build_module`), aggregators are asked for
their ``PlanChoice`` at the point's workload shape, and the
result goes through :func:`repro.plan.module_plan`.  Plans print
canonically, so the rendered text is stable across runs and doubles
as a golden in CI — a change anywhere in the module → plan → lowering
path shows up as a plan-text diff before it shows up as a timing
regression.
"""

from __future__ import annotations

import difflib
from typing import Optional, Union

from repro.units import fmt_bytes, fmt_time

#: Scenario kinds with no lowered communication plan (pure model or
#: profiling points).
PLANLESS_KINDS = frozenset({"model_curve", "table1", "arrival_profile"})


def _profile(profile):
    if isinstance(profile, str):
        from repro.exp.profiles import get_profile

        return get_profile(profile)
    return profile


def _module_label(desc) -> str:
    """A short, stable name for a module descriptor."""
    if desc is None:
        return "persist"
    name = desc[0]
    params = dict(desc[1]) if len(desc) > 1 and desc[1] else {}
    if name == "fixed":
        return f"fixed(t={params['n_transport']},qp={params['n_qps']})"
    if name == "timer":
        return f"timer(d={fmt_time(params['delta'])})"
    if name == "adaptive":
        return f"adaptive(d={fmt_time(params['initial_delta'])})"
    if name == "autotune":
        return f"autotune[{params.get('policy', 'bandit')}]"
    return name


def _config_for(params: dict):
    from repro.config import NIAGARA
    from repro.exp.modules import build_config

    return build_config(params.get("config")) or NIAGARA


def _add(entries: dict, label: str, module_desc, n_user: int,
         total_bytes: int, params: dict) -> None:
    from repro.exp.modules import build_module
    from repro.plan import module_plan

    plan = module_plan(build_module(module_desc), n_user,
                       max(1, total_bytes // n_user), _config_for(params))
    if label in entries:
        if entries[label].digest == plan.digest:
            return
        # Same label, structurally different plan (two descriptors that
        # abbreviate identically): disambiguate by content digest.
        label = f"{label} #{plan.digest[:6]}"
        if label in entries:
            return
    entries[label] = plan


def experiment_plans(name: str,
                     profile: Union[str, object]) -> list[tuple]:
    """``(label, Plan)`` per distinct workload of an experiment.

    Every sweep point of ``get_experiment(name).build(profile)`` is
    mapped to the plan its module resolves to at that point's workload
    shape.  Points whose kind has no communication plan
    (:data:`PLANLESS_KINDS`) are skipped; points that resolve to the
    same (label, plan) pair dedup to one entry, first-seen order.
    """
    from repro.exp.registry import get_experiment

    profile = _profile(profile)
    spec = get_experiment(name).build(profile)
    entries: dict = {}
    for point in spec.points:
        kind, p = point.kind, point.params
        if kind in PLANLESS_KINDS:
            continue
        if kind in ("overhead", "perceived", "min_delta"):
            module, n, total = p.get("module"), p["n_user"], p["total_bytes"]
        elif kind == "sweep":
            module, n, total = p.get("module"), p["n_threads"], \
                p["total_bytes"]
        elif kind == "halo":
            module, n, total = p.get("module"), p["n_threads"], \
                p["face_bytes"]
        elif kind == "pallreduce":
            module = p.get("module")
            n = p.get("n_partitions") or p["n_threads"]
            total = n * p["partition_size"]
        elif kind == "autotune":
            module, n, total = ["autotune", p["autotune"]], p["n_user"], \
                p["total_bytes"]
        elif kind == "stencil":
            module = (["autotune", p["per_edge"]]
                      if p.get("per_edge") is not None else p.get("module"))
            n = p.get("n_partitions") or p["n_threads"]
            faces = p["face_bytes"]
            faces = [faces] if isinstance(faces, int) else list(faces)
            for face in dict.fromkeys(faces):
                label = (f"stencil {_module_label(module)} parts={n} "
                         f"face={fmt_bytes(face)}")
                _add(entries, label, module, n, face, p)
            continue
        else:  # future kinds: no plan mapping yet, skip rather than fail
            continue
        label = f"{kind} {_module_label(module)} n={n} {fmt_bytes(total)}"
        _add(entries, label, module, n, total, p)
    return list(entries.items())


def render_plans(name: str, profile: Union[str, object]) -> str:
    """The ``repro-bench plan show`` text for one experiment."""
    profile = _profile(profile)
    entries = experiment_plans(name, profile)
    lines = [f"# plans: {name} [{profile.name}] "
             f"({len(entries)} workloads)"]
    for label, plan in entries:
        lines.append("")
        lines.append(f"== {label} [{plan.digest}]")
        lines.append(plan.text)
    return "\n".join(lines) + "\n"


def diff_plans(name_a: str, name_b: str,
               profile_a: Union[str, object],
               profile_b: Optional[Union[str, object]] = None) -> str:
    """Unified diff between two experiments' plan sets ("" = identical).

    Entries are matched by label; matched entries that lower to
    different plans render as a unified diff of their canonical text.
    """
    profile_a = _profile(profile_a)
    profile_b = _profile(profile_b if profile_b is not None else profile_a)
    plans_a = dict(experiment_plans(name_a, profile_a))
    plans_b = dict(experiment_plans(name_b, profile_b))
    tag_a = f"{name_a}[{profile_a.name}]"
    tag_b = f"{name_b}[{profile_b.name}]"
    lines = []
    for label in plans_a:
        if label not in plans_b:
            lines.append(f"- only in {tag_a}: {label}")
    for label in plans_b:
        if label not in plans_a:
            lines.append(f"+ only in {tag_b}: {label}")
    for label, plan in plans_a.items():
        other = plans_b.get(label)
        if other is None or other.digest == plan.digest:
            continue
        lines.append(f"@ {label}: {plan.digest} -> {other.digest}")
        lines.extend(difflib.unified_diff(
            plan.text.splitlines(), other.text.splitlines(),
            fromfile=tag_a, tofile=tag_b, lineterm=""))
    return "\n".join(lines)
