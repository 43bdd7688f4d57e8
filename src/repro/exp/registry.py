"""The experiment registry: every figure/table as a declarative spec.

An :class:`Experiment` maps a profile (paper-scale or fast) to an
:class:`ExperimentSpec` — the list of sweep points it needs, a
``collect`` function that assembles point results into the figure's
series, and a ``report`` function that renders the classic text table.
The registry is what ``repro-bench bench list|run`` and the thin
``benchmarks/bench_*.py`` scripts drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.exp.profiles import Profile
from repro.exp.spec import Scenario

ResultMap = Mapping[Scenario, dict]


@dataclass(frozen=True)
class Metric:
    """How to read (and compare) an experiment's series values."""

    name: str
    unit: str = ""
    higher_is_better: bool = True


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
    """A registered experiment: name, title, profile-driven builder."""

    name: str
    title: str
    build: Callable[[Profile], ExperimentSpec]


_REGISTRY: dict[str, Experiment] = {}


def register(name: str, title: str):
    """Decorator registering ``build(profile) -> ExperimentSpec``."""
    def decorate(build: Callable[[Profile], ExperimentSpec]):
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        _REGISTRY[name] = Experiment(name=name, title=title, build=build)
        return build
    return decorate


def get_experiment(name: str) -> Experiment:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"have {', '.join(sorted(_REGISTRY))}") from None


def all_experiments() -> list[Experiment]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def experiment_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def _ensure_loaded() -> None:
    # The definitions live in repro.exp.experiments; importing it
    # populates the registry exactly once.
    import repro.exp.experiments  # noqa: F401
