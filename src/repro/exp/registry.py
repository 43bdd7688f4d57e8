"""The experiment registry: every figure/table as a declarative spec.

An :class:`Experiment` is one row of the table in
:mod:`repro.exp.experiments`; ``build(profile)`` turns it into an
:class:`ExperimentSpec` — the list of sweep points it needs, a
``collect`` function that assembles point results into the figure's
series, and a ``report`` function that renders the classic text table.
Each row's :class:`Guideline` tuple is the figure's expected shape, which
``repro-bench bench run`` checks on every run of the row.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exp.profiles import Profile
from repro.exp.spec import Scenario

ResultMap = Mapping[Scenario, dict]


@dataclass(frozen=True)
class Metric:
    """How to read (and compare) an experiment's series values."""

    name: str
    unit: str = ""
    higher_is_better: bool = True


@dataclass(frozen=True)
class Guideline:
    """One expected shape of an experiment's payload, after Hunold's
    performance guidelines: ``holds(payload)`` is true on every run."""

    name: str
    #: Why the shape should hold: the one-line mechanism behind it.
    mechanism: str
    holds: Callable[[dict], bool]


@dataclass
class ExperimentSpec:
    """One concrete, runnable experiment instance."""

    points: list[Scenario]
    #: Assemble the per-point metrics into the experiment payload.  The
    #: payload must be JSON-safe and contain a ``"series"`` mapping of
    #: ``{label: {point-key: number}}`` — the unit ``compare`` diffs.
    collect: Callable[[ResultMap], dict]
    #: Render the payload as the classic text table.
    report: Callable[[dict], str]
    metric: Metric = field(default_factory=lambda: Metric("speedup", "x"))


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table (``repro.exp.experiments``)."""

    name: str
    title: str
    #: How to read (and compare) the series; stamped on every build.
    metric: Metric
    #: Lays the points out: ``spec(**args) -> ExperimentSpec``.
    spec: Callable[..., ExperimentSpec]
    #: The figure's expected shape, read off points both profiles share.
    guidelines: tuple[Guideline, ...]
    #: Series labels that are better when lower, whatever the metric's
    #: direction; ``compare`` reads them from the artifact.
    lower_is_better: tuple[str, ...] = ()
    #: ``spec``'s arguments under the ``paper`` and ``fast`` profiles.
    paper: Mapping[str, Any] = field(default_factory=dict)
    fast: Mapping[str, Any] = field(default_factory=dict)

    def build(self, profile: Profile) -> ExperimentSpec:
        """The spec at ``profile``'s scale."""
        args = self.paper if profile.name == "paper" else self.fast
        return dataclasses.replace(self.spec(**args), metric=self.metric)

    def violations(self, payload: dict) -> list[Guideline]:
        """The guidelines ``payload`` breaks."""
        return [g for g in self.guidelines if not g.holds(payload)]


def _table() -> dict[str, Experiment]:
    # The rows live in repro.exp.experiments, which imports this module.
    from repro.exp.experiments import EXPERIMENTS

    return EXPERIMENTS


def get_experiment(name: str) -> Experiment:
    table = _table()
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"have {', '.join(sorted(table))}") from None


def all_experiments() -> list[Experiment]:
    table = _table()
    return [table[name] for name in sorted(table)]


def experiment_names() -> list[str]:
    return sorted(_table())
