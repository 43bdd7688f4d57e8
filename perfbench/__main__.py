"""Command line: ``python3 -m perfbench run|compare|report``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import HERE, OUT, SRC, load_spec
from perfbench.workloads import ALL


def _print_table(result: dict, spec: dict) -> None:
    """Every metric by name, with unit, direction and bound."""
    for name, record in result["workloads"].items():
        print(f"\n{name}: {record['reps']} reps, {record['attempted']} ops "
              f"attempted, {record['failed']} failed "
              f"(failed_share {record['failed_share']:.4g}), "
              f"sim_digest {str(record['sim_digest'])[:16]}")
        for error in record["errors"]:
            print(f"  ! {error}")
        for metric in spec["end_to_end"]:
            if not record["e2e"]:
                break
            s = record["e2e"][metric["name"]]
            print(f"  {metric['name']:28s} {s['value']:14.6g} {metric['unit']:6s}"
                  f" {metric['better']:6s} better, bound {metric['bound']:.0%},"
                  f" n={s['n']}: median {s['median']:.6g}"
                  f" min {s['min']:.6g} max {s['max']:.6g}")
        for metric in spec["per_layer"]:
            # A layer metric with no part in this workload reads 0: skip it.
            if not record["layers"] or not record["layers"][metric["name"]]:
                continue
            print(f"  {metric['name']:28s} {record['layers'][metric['name']]:14.6g}"
                  f" {metric['unit']:6s} {metric['better']} better")


def cmd_run(args) -> int:
    from perfbench import runner

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [args.workload] if args.workload else list(ALL)
    if names[0] not in ALL:
        print(f"perfbench: unknown workload {names[0]!r}; have {list(ALL)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = runner.run(names, args.seed, seconds, args.trace, args.smoke,
                        args.inject_failure)
    spans = result.pop("spans", None)
    if spans is not None:
        runner.write_json(OUT / "trace.json", {"spans": spans})
    runner.write_json(Path(args.out) if args.out else OUT / "result.json", result)
    _print_table(result, spec)

    records = result["workloads"].values()
    section = "layers" if args.trace == 1 else "e2e"
    complete = all(r[section] for r in records)
    ok = complete and not any(r["failed"] for r in records)
    if args.workload and complete:
        # The benchmark contract's result line: one workload, one JSON object.
        record = result["workloads"][args.workload]
        catalogue = spec["per_layer" if args.trace == 1 else "end_to_end"]
        metrics = {
            m["name"]: {"unit": m["unit"],
                        "value": (record["layers"][m["name"]] if args.trace == 1
                                  else record["e2e"][m["name"]]["value"])}
            for m in catalogue}
        print(json.dumps({"correct": ok, "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure one workload or all of them")
    run.add_argument("--workload", help="default: every workload")
    run.add_argument("--seed", type=int, default=0,
                     help="seeds every generated input (default 0)")
    run.add_argument("--seconds", type=float,
                     help="untraced measuring time per workload "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: untraced reps only; 1: traced run only; "
                          "default: both")
    run.add_argument("--smoke", action="store_true",
                     help="every workload cut to under a second, one rep")
    run.add_argument("--out", help="result file (default perfbench/out/result.json)")
    run.add_argument("--inject-failure", metavar="WORKLOAD",
                     help="add a failing point to WORKLOAD (for the tests)")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="A.json against B.json")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.add_argument("--strict", action="store_true",
                         help="also fail on 'unresolved' and on any exact "
                              "count or digest that differs")
    compare.set_defaults(fn=_compare)

    report = sub.add_parser("report", help="regenerate perfbench/LEDGER.md")
    report.add_argument("--result", default=str(OUT / "result.json"))
    report.add_argument("--out", default=str(HERE / "LEDGER.md"))
    report.set_defaults(fn=_report)

    args = parser.parse_args(argv)
    return args.fn(args)


def _compare(args) -> int:
    from perfbench.compare import compare_files

    return compare_files(args.a, args.b, args.strict)


def _report(args) -> int:
    from perfbench.report import write_ledger

    return write_ledger(args.result, args.out)


if __name__ == "__main__":
    sys.exit(main())
