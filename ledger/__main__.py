"""``python -m ledger``: run the whole ledger, or compare two reports.

    PYTHONPATH=src python -m ledger [--seed S] [--reps N] [--workload NAME ...] [--out FILE]
    PYTHONPATH=src python -m ledger compare A.json [B.json]

The run prints one line per metric (``workload  name  value  unit
domain  spread``) and one per output check, writes the JSON report, and
exits 1 when any check fails.  ``compare`` exits 2 on any ``worse`` row.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger import compare, runner, workloads
from ledger.metrics import SHOULD_MOVE


def _number(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_report(report: Dict[str, Any]) -> None:
    for name, workload in report["workloads"].items():
        for metric, row in workload["end_to_end"].items():
            spread = ("-" if row["spread"] is None
                      else f"{100 * row['spread']:.2f}%")
            print(f"{name}  {metric}  {_number(row['value'])}  {row['unit']}  "
                  f"{row['domain']}  {spread}")
        counts = workload["counts"]
        print(f"{name}  counts  reps={counts['reps']} "
              f"attempted={counts['attempted']} failed={counts['failed']} "
              f"latency_samples={counts['latency_samples']}")
        for metric, row in workload["per_layer"].items():
            note = f"  # {row['reason']}" if row["value"] is None else ""
            print(f"{name}  {metric}  {_number(row['value'])}  {row['unit']}  "
                  f"layer={row['layer']}  T{note}")
        for check in workload["checks"]:
            print(f"check  {name}  {check['name']}  "
                  f"{'ok' if check['ok'] else 'FAIL'}  {check['detail']}")
    for metric, row in report["probes"].items():
        note = f"  # {row['reason']}" if row["value"] is None else ""
        print(f"probe  {metric}  {_number(row['value'])}  {row['unit']}  "
              f"layer={row['layer']}  P{note}")
    print("note  *.host_share: the public kernel profile files process "
          "resumes under 'sim', which therefore swallows ~95% of the wall "
          "time; the shares sharpen when src/ attributes them.")


def run(args: argparse.Namespace) -> int:
    spans = runner.Spans()
    report: Dict[str, Any] = {"manifest": runner.manifest(args.seed),
                              "should_move": SHOULD_MOVE, "workloads": {}}
    report["manifest"]["reps"] = args.reps
    for name in args.workload or list(workloads.BY_NAME):
        report["workloads"][name] = runner.run_workload(
            name, args.seed, spans, setup=True, min_reps=args.reps,
            budget_s=0.0, traced=True)
    report["probes"] = runner.run_probes(spans)
    print_report(report)
    failures = runner.close_report(report, spans,
                                   Path(args.out) if args.out else None)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="python -m ledger compare")
        parser.add_argument("baseline", type=Path)
        parser.add_argument("candidate", type=Path, nargs="?")
        args = parser.parse_args(argv[1:])
        return compare.main(args.baseline, args.candidate)
    parser = argparse.ArgumentParser(prog="python -m ledger",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--reps", type=int, default=runner.MIN_REPS,
                        help="untraced repetitions per workload (>= 3)")
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        choices=list(workloads.BY_NAME),
                        help="run only these workloads")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.reps < runner.MIN_REPS:
        parser.error(f"--reps must be at least {runner.MIN_REPS}")
    try:
        return run(args)
    except runner.ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
