"""The experiment harness: declarative sweeps, cached and parallel.

This layer separates *what* an experiment measures (a
:class:`~repro.exp.spec.Scenario` list built from its row of the table
in :mod:`repro.exp.experiments`) from *how* the points are executed (the
:class:`~repro.exp.runner.Runner`, serial or process-parallel, with a
content-addressed :class:`~repro.exp.cache.ResultCache`) and how the
outcome is persisted (:class:`~repro.exp.store.ResultStore` artifacts).

Entry points live in :mod:`repro.exp.harness`: :func:`run_experiment`
runs a registered experiment by name (``repro-bench bench run``, which
then checks the row's guidelines on the payload).

Every name below resolves on first use (:mod:`repro.lazy`): a simulation
point that needs only :mod:`repro.exp.modules` or :mod:`repro.exp.cache`
never loads the runner, the registry or the stores.

Every sweep point is a pure function of its scenario and the source
tree, so results are bit-identical across ``--jobs`` settings and safe
to cache; see :mod:`repro.exp.kinds`.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("ResultCache",),
    "fingerprint": ("code_fingerprint",),
    "harness": ("DEFAULT_CACHE_DIR", "ExperimentRun", "add_cache_options",
                "add_run_options", "default_jobs", "positive_int",
                "run_experiment", "run_from_options"),
    "plans": ("diff_plans", "experiment_plans", "render_plans"),
    "profiles": ("FAST", "PAPER", "PERCEIVED_COMPUTE", "PERCEIVED_NOISE",
                 "PROFILES", "Profile", "get_profile"),
    "registry": ("Experiment", "ExperimentSpec", "Guideline", "Metric",
                 "all_experiments", "experiment_names", "get_experiment"),
    "runner": ("Runner", "RunStats"),
    "spec": ("Scenario", "canonical", "dedup"),
    "store": ("RESULT_SCHEMA", "CompareReport", "ResultStore",
              "compare_results", "load_result"),
})

__all__ = [
    "CompareReport", "Experiment", "ExperimentRun", "ExperimentSpec",
    "FAST", "Guideline", "Metric", "PAPER", "PERCEIVED_COMPUTE",
    "PERCEIVED_NOISE", "PROFILES", "Profile", "RESULT_SCHEMA",
    "ResultCache", "ResultStore", "Runner",
    "RunStats", "Scenario", "all_experiments", "canonical",
    "code_fingerprint", "compare_results", "dedup", "default_jobs",
    "diff_plans", "experiment_names", "experiment_plans",
    "get_experiment", "get_profile",
    "load_result", "render_plans", "run_experiment",
]
