"""Versioned, machine-readable result artifacts and regression diffing.

:class:`ResultStore` writes each completed experiment twice:

* ``results/<name>.json`` — the full payload (series plus any extra
  tables the experiment collected), and
* ``BENCH_<name>.json`` at the repository top level — the compact
  perf-trajectory artifact CI uploads and diffs.

Both carry ``schema: repro-bench/v1``, the experiment name, profile,
code fingerprint, metric direction (plus any lower-is-better series),
and run bookkeeping, so any two artifacts are comparable without
out-of-band context.

:func:`compare_results` diffs two artifacts and flags every series
value that moved beyond a threshold in the metric's bad direction —
the unit behind ``repro-bench bench compare`` and the CI regression
gate.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Optional

from repro.atomic import atomic_write

RESULT_SCHEMA = "repro-bench/v1"


class ResultStore:
    """Writes experiment payloads as versioned JSON artifacts."""

    def __init__(self, results_dir: os.PathLike | str = "results",
                 bench_dir: Optional[os.PathLike | str] = "."):
        self.results_dir = pathlib.Path(results_dir)
        self.bench_dir = pathlib.Path(bench_dir) if bench_dir else None

    def write(self, name: str, payload: dict, *, profile: str,
              fingerprint: str, metric: dict,
              stats: Optional[dict] = None,
              elapsed: Optional[float] = None) -> list[pathlib.Path]:
        doc = {
            "schema": RESULT_SCHEMA,
            "experiment": name,
            "profile": profile,
            "created": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "code_fingerprint": fingerprint,
            "metric": metric,
            "series": payload.get("series", {}),
        }
        if elapsed is not None:
            doc["elapsed_s"] = round(elapsed, 3)
        if stats:
            doc["run"] = stats
        extra = {k: v for k, v in payload.items() if k != "series"}
        paths = []
        if self.bench_dir is not None:
            paths.append(self._dump(self.bench_dir / f"BENCH_{name}.json",
                                    doc))
        if extra:
            doc = dict(doc, extra=extra)
        paths.insert(0, self._dump(self.results_dir / f"{name}.json", doc))
        return paths

    @staticmethod
    def _dump(path: pathlib.Path, doc: dict) -> pathlib.Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True)
                            + "\n").encode())
        return path


def load_result(path: os.PathLike | str) -> dict:
    """Load and sanity-check one result artifact."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError:
            raise ValueError(f"{path}: not a JSON artifact") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a {RESULT_SCHEMA} artifact "
                         f"(a JSON {type(doc).__name__}, not an object)")
    if doc.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"{path}: not a {RESULT_SCHEMA} artifact "
            f"(schema={doc.get('schema')!r})")
    return doc


@dataclass
class Delta:
    """One compared series value."""

    label: str
    key: str
    old: float
    new: float

    @property
    def change(self) -> float:
        """Relative change of the new value versus the old."""
        if self.old == 0:
            return 0.0
        return (self.new - self.old) / abs(self.old)


@dataclass
class CompareReport:
    """Outcome of diffing two result artifacts."""

    experiment: str
    threshold: float
    regressions: list[Delta] = field(default_factory=list)
    improvements: list[Delta] = field(default_factory=list)
    unchanged: int = 0
    missing: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def format(self) -> str:
        lines = [f"compare {self.experiment}: threshold "
                 f"{self.threshold:.0%}"]
        for delta in self.regressions:
            lines.append(
                f"  REGRESSION {delta.label} @ {delta.key}: "
                f"{delta.old:.6g} -> {delta.new:.6g} "
                f"({delta.change:+.1%})")
        for delta in self.improvements:
            lines.append(
                f"  improved   {delta.label} @ {delta.key}: "
                f"{delta.old:.6g} -> {delta.new:.6g} "
                f"({delta.change:+.1%})")
        for key in self.missing:
            lines.append(f"  MISSING    {key} (present in baseline only)")
        lines.append(
            f"  {self.unchanged} value(s) within threshold; "
            + ("OK" if self.ok else "FAIL"))
        return "\n".join(lines)


def compare_results(new: dict, old: dict,
                    threshold: float = 0.10) -> CompareReport:
    """Flag series values that regressed beyond ``threshold``.

    Direction comes from the *baseline's* metric record: for a
    higher-is-better metric (speedup, bandwidth) a drop is a
    regression; for lower-is-better (times) a rise is.  A series named
    in either artifact's ``metric.lower_is_better`` list (latencies,
    slowdowns) is lower-is-better whatever the metric says.  Keys
    present only in the new artifact are ignored (new coverage is not a
    regression); keys that disappeared are reported as missing.
    """
    metric = old.get("metric", {})
    higher_better = bool(metric.get("higher_is_better", True))
    lower_labels = {label for doc in (new, old) for label in
                    doc.get("metric", {}).get("lower_is_better", ())}
    report = CompareReport(
        experiment=old.get("experiment", "?"), threshold=threshold)
    old_series = old.get("series", {})
    new_series = new.get("series", {})
    for label, old_values in old_series.items():
        new_values = new_series.get(label)
        if new_values is None:
            report.missing.append(label)
            continue
        if not isinstance(old_values, dict):
            old_values, new_values = {"": old_values}, {"": new_values}
        for key, old_value in old_values.items():
            if key not in new_values:
                report.missing.append(f"{label} @ {key}")
                continue
            new_value = new_values[key]
            if not isinstance(old_value, (int, float)) or \
                    not isinstance(new_value, (int, float)):
                continue
            delta = Delta(label=label, key=str(key),
                          old=float(old_value), new=float(new_value))
            if higher_better and label not in lower_labels:
                worse = delta.new < delta.old
            else:
                worse = delta.new > delta.old
            if abs(delta.change) <= threshold:
                report.unchanged += 1
            elif worse:
                report.regressions.append(delta)
            else:
                report.improvements.append(delta)
    return report
