"""The benchmark driver's entry: one workload, one half of the ledger.

    python3 -m ledger.run --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with every observer off:
set-up children, then untraced repetitions for ``--seconds`` host
seconds (never fewer than three, one per sub-seed).  ``--trace 1``
fills the per-layer table: one untraced and one traced run of the first
sub-seed (fixed work, whatever ``--seconds`` says) and the layer probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full report
with spans and reasons goes to ``--out`` (default
``.ledger_out/<workload>.trace<T>.seed<N>.json`` in the checkout).  The
driver's line holds numbers only, so a per-layer metric that is not
defined on a workload (``shard.*`` on one group, ``recovery.*`` without
a crash) reads 0 there and ``null`` with its reason in the report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger import runner, workloads
from ledger.metrics import PER_LAYER, contract_end_to_end


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m ledger.run")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    out = Path(args.out or runner.OUT_DIR / (
        f"{args.workload}.trace{args.trace}.seed{args.seed}.json"))

    spans = runner.Spans()
    report: Dict[str, Any] = {"manifest": runner.manifest(args.seed),
                              "workloads": {}}
    try:
        if args.trace:
            measured = runner.run_workload(
                args.workload, args.seed, spans, setup=False, min_reps=1,
                budget_s=0.0, traced=True)
            report["probes"] = runner.run_probes(spans)
            rows = {**measured["per_layer"], **report["probes"]}
            line = {spec.name: {"value": rows[spec.name]["value"] or 0.0,
                                "unit": spec.unit} for spec in PER_LAYER}
        else:
            measured = runner.run_workload(
                args.workload, args.seed, spans, setup=True,
                min_reps=runner.MIN_REPS, budget_s=args.seconds, traced=False)
            line = {spec.name: {
                "value": measured["end_to_end"][spec.name]["value"],
                "unit": spec.unit} for spec in contract_end_to_end()}
    except runner.ChildFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    report["workloads"][args.workload] = measured
    failures = runner.close_report(report, spans, out)
    print(json.dumps({"correct": not failures,
                      "attempted": measured["counts"]["attempted"],
                      "failed": measured["counts"]["failed"],
                      "metrics": line}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
