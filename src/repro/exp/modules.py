"""Declarative descriptors for modules, aggregators and topologies.

Scenarios must be JSON-safe, so live objects (aggregators holding
LogGP tables, topology instances) are described as ``[name, params]``
pairs and rebuilt inside the worker process that executes the point.
The descriptor vocabulary:

======================  ==================================================
``["persist"]``          the ``part_persist`` baseline (module = None)
``["ploggp", p]``        :class:`PLogGPAggregator` (``delay`` seconds)
``["timer", p]``         :class:`TimerPLogGPAggregator` (``delay``,
                         ``delta``; ``"scatter_gather": true`` runs it
                         under the ablation's :class:`ScatterGatherSpec`)
``["adaptive", p]``      online δ: the ``delta_tracker`` autotuner on a
                         window of one (each round's own spread)
``["fixed", p]``         :class:`FixedAggregation` (``n_transport``,
                         ``n_qps``)
``["noagg", p]``         :class:`NoAggregation` (optional ``n_qps``)
``["tuning_table", p]``  :class:`TuningTableAggregator` over a table
                         brute-forced from ``p`` (memoized per process)
``["autotune", p]``      :class:`repro.autotune.AdaptiveAggregator` from
                         :func:`repro.autotune.build_autotuner` (no
                         store — points must stay pure)
======================  ==================================================

A key a descriptor's module does not read is an error
(:func:`check_module`), not a silent default.

All aggregators take the Niagara LogGP calibration
(:data:`repro.model.tables.NIAGARA_LOGGP`), as every benchmark does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.errors import ConfigError, check_keys
from repro.exp.spec import canonical
from repro.units import fmt_time, ms


def _params(desc: Sequence[Any]) -> dict:
    return dict(desc[1]) if len(desc) > 1 and desc[1] else {}


def module_label(desc: Optional[Sequence[Any]]) -> str:
    """A short, stable name for a module descriptor (``plan show``)."""
    if desc is None:
        return "persist"
    name, params = desc[0], _params(desc)
    if name == "fixed":
        return f"fixed(t={params['n_transport']},qp={params['n_qps']})"
    if name == "timer":
        sg = ",sg" if params.get("scatter_gather") else ""
        return f"timer(d={fmt_time(params['delta'])}{sg})"
    if name == "adaptive":
        return f"adaptive(d={fmt_time(params['initial_delta'])})"
    if name == "autotune":
        return f"autotune[{params.get('policy', 'bandit')}]"
    return name


#: The keys each descriptor :func:`build_module` knows reads (an
#: ``autotune`` descriptor's are its policy's, ``check_autotune``).
MODULE_KEYS = {
    "persist": (),
    "ploggp": ("delay",),
    "timer": ("delay", "delta", "scatter_gather"),
    "adaptive": ("initial_delta", "alpha", "margin", "min_delta",
                 "max_delta", "delay"),
    "fixed": ("n_transport", "n_qps"),
    "noagg": ("n_qps",),
    "tuning_table": ("n_user_counts", "message_sizes", "iterations",
                     "warmup"),
    "autotune": None,
}
MODULE_NAMES = tuple(MODULE_KEYS)


def check_module(desc: Optional[Sequence[Any]]):
    """``desc``, or a :class:`ConfigError` if it names no module or a
    key its module does not read; builds nothing."""
    name = None if desc is None else desc[0]
    if name == "autotune":
        from repro.autotune.aggregator import check_autotune

        check_autotune(desc[1] if len(desc) > 1 else None)
    elif name is not None:
        if name not in MODULE_KEYS:
            raise ConfigError(f"unknown module descriptor {desc!r}")
        check_keys(f"{name} descriptor", _params(desc), MODULE_KEYS[name])
    return desc


@lru_cache(maxsize=None)
def _memoized_tuning_table(key: str):
    """Build (once per process) the brute-force table for a descriptor."""
    import json

    from repro.core.tuning_table import build_tuning_table

    params = json.loads(key)
    return build_tuning_table(
        n_user_counts=list(params["n_user_counts"]),
        message_sizes=list(params["message_sizes"]),
        iterations=params.get("iterations", 5),
        warmup=params.get("warmup", 1),
    )


def build_module(desc: Optional[Sequence[Any]]):
    """Rebuild the module/aggregator a descriptor names.

    Returns ``None`` for the ``part_persist`` baseline, matching the
    convention of :func:`repro.bench.overhead.run_overhead`; the
    scatter/gather ablation is a ``ModuleSpec``, the rest aggregators.
    """
    check_module(desc)
    if desc is None:
        return None
    from repro.core import (
        FixedAggregation,
        NoAggregation,
        PLogGPAggregator,
        TimerPLogGPAggregator,
        TuningTableAggregator,
    )
    from repro.model.tables import NIAGARA_LOGGP

    name, params = desc[0], _params(desc)
    if name == "persist":
        return None
    if name == "ploggp":
        return PLogGPAggregator(NIAGARA_LOGGP,
                                delay=params.get("delay", ms(4)))
    if name == "timer":
        timer = TimerPLogGPAggregator(
            NIAGARA_LOGGP, delay=params.get("delay", ms(4)),
            delta=params["delta"])
        if params.get("scatter_gather"):
            from repro.core.scatter_gather import ScatterGatherSpec

            return ScatterGatherSpec(timer)
        return timer
    if name == "adaptive":
        # An autotune descriptor by another name: the δ-tracker at a
        # window of one and the top quantile, so δ follows each round's
        # own non-laggard spread (alpha/margin/min/max pass through).
        name, params = "autotune", {
            "delta": params.pop("initial_delta"), **params,
            "policy": "delta_tracker", "quantile": 1.0,
            "tracker_window": 1, "warm_rounds": 1}
    if name == "fixed":
        return FixedAggregation(params["n_transport"], params["n_qps"])
    if name == "noagg":
        return NoAggregation(n_qps=params.get("n_qps"))
    if name == "tuning_table":
        return TuningTableAggregator(_memoized_tuning_table(
            canonical(params)))
    if name == "autotune":
        from repro.autotune import build_autotuner

        return build_autotuner(params)


TOPOLOGIES = {
    "uniform": "UniformTopology",
    "dragonfly+": "DragonflyPlus",
    "dragonfly+routed": "RoutedDragonflyPlus",
}


def build_topology(desc: Optional[Sequence[Any]]):
    """Rebuild a fabric topology from its descriptor (None passthrough)."""
    if desc is None:
        return None
    import repro.ib.topology as topo_mod

    name, params = desc[0], _params(desc)
    try:
        cls = getattr(topo_mod, TOPOLOGIES[name])
    except KeyError:
        raise ValueError(f"unknown topology descriptor {desc!r}") from None
    return cls(**params)


#: ClusterConfig section name -> config class name, for (de)serializing
#: whole-config overrides through a scenario's JSON params.
_CONFIG_SECTIONS = {
    "nic": "NICConfig",
    "link": "LinkConfig",
    "host": "HostConfig",
    "ucx": "UCXConfig",
    "part": "PartitionedConfig",
}


def build_config(desc: Optional[dict]):
    """Rebuild a ClusterConfig from its ``dataclasses.asdict`` descriptor."""
    if desc is None:
        return None
    import repro.config as config_mod

    kwargs = dict(desc)
    for section, clsname in _CONFIG_SECTIONS.items():
        if section in kwargs:
            kwargs[section] = getattr(config_mod, clsname)(**kwargs[section])
    config = config_mod.ClusterConfig(**kwargs)
    config.validate()
    return config

