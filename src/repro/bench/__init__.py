"""Benchmark implementations mirroring the paper's evaluation.

* :mod:`repro.bench.pair` — the two-process harness all point-to-point
  micro-benchmarks share;
* :mod:`repro.bench.overhead` — the overhead (wire-efficiency)
  benchmark of Section V-B;
* :mod:`repro.bench.perceived` — the perceived-bandwidth benchmark of
  Section V-C;
* :mod:`repro.bench.sweep` — the Sweep3D communication pattern of
  Section V-D;
* :mod:`repro.bench.coll` — partitioned tree-collective rounds
  (allreduce over binomial trees of partitioned pairs);
* :mod:`repro.bench.reporting` — table/series formatting for the
  figure reports ``repro-bench bench run`` prints.

Every name below resolves on first use (:mod:`repro.lazy`), so a
point-to-point run loads ``pair`` and ``overhead`` and nothing else.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "pair": ("PairBenchResult", "IterationRecord", "run_partitioned_pair"),
    "overhead": ("OverheadResult", "run_overhead", "overhead_speedup_series"),
    "perceived": ("PerceivedResult", "run_perceived_bandwidth"),
    "sweep": ("SweepResult", "run_sweep"),
    "halo": ("HaloResult", "run_halo"),
    "coll": ("PcollResult", "run_pallreduce"),
    "reporting": ("format_table", "format_speedup_series"),
})

__all__ = [
    "PairBenchResult",
    "IterationRecord",
    "run_partitioned_pair",
    "OverheadResult",
    "run_overhead",
    "overhead_speedup_series",
    "PerceivedResult",
    "run_perceived_bandwidth",
    "SweepResult",
    "run_sweep",
    "HaloResult",
    "run_halo",
    "PcollResult",
    "run_pallreduce",
    "format_table",
    "format_speedup_series",
]
