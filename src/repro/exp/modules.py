"""Declarative descriptors for modules, aggregators and topologies.

Scenarios must be JSON-safe, so live objects (aggregators holding
LogGP tables, topology instances) are described as ``[name, params]``
pairs and rebuilt inside the worker process that executes the point.
The descriptor vocabulary:

======================  ==================================================
``["persist"]``          the ``part_persist`` baseline (module = None)
``["ploggp", p]``        :class:`PLogGPAggregator` (``delay`` seconds)
``["timer", p]``         :class:`TimerPLogGPAggregator` (``delay``,
                         ``delta``, optional ``scatter_gather``)
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

All aggregators take the Niagara LogGP calibration
(:data:`repro.model.tables.NIAGARA_LOGGP`), as every benchmark does.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Optional, Sequence

from repro.exp.spec import canonical
from repro.units import ms


def _params(desc: Sequence[Any]) -> dict:
    return dict(desc[1]) if len(desc) > 1 and desc[1] else {}


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
    convention of :func:`repro.bench.overhead.run_overhead`.
    """
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
        return TimerPLogGPAggregator(
            NIAGARA_LOGGP,
            delay=params.get("delay", ms(4)),
            delta=params["delta"],
            scatter_gather=params.get("scatter_gather", False))
    if name == "adaptive":
        # An autotune descriptor by another name: the δ-tracker at a
        # window of one and the top quantile, so δ follows each round's
        # own non-laggard spread (alpha/margin/min/max pass through).
        name, params = "autotune", {
            **params, "policy": "delta_tracker",
            "delta": params["initial_delta"], "quantile": 1.0,
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
    raise ValueError(f"unknown module descriptor {desc!r}")


_TOPOLOGIES = {
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
        cls = getattr(topo_mod, _TOPOLOGIES[name])
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
    "engine": "EngineConfig",
}


def config_desc(config) -> Optional[dict]:
    """The JSON-safe descriptor of a live ClusterConfig (None passthrough).

    Every section is a frozen dataclass of primitives, so a plain
    ``asdict`` captures the whole configuration losslessly.
    """
    if config is None:
        return None
    return dataclasses.asdict(config)


def build_config(desc: Optional[dict]):
    """Rebuild a ClusterConfig from its descriptor (inverse of above)."""
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


def topology_desc(topology) -> Optional[list]:
    """The descriptor for a live topology instance (inverse of build)."""
    if topology is None:
        return None
    for name, clsname in _TOPOLOGIES.items():
        if type(topology).__name__ == clsname:
            return [name, dataclasses.asdict(topology)]
    raise ValueError(f"cannot describe topology {topology!r}")
