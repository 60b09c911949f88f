"""``python -m ledger compare A.json [B.json]``: is B worse than A?

Each file is a report, or a baseline file holding several
(``{"reports": [...]}``): the first report of A is compared with the
last of B, or with the last of A when B is left out.

One row per workload x end-to-end metric:

* ``ok`` -- B is no worse than A by more than the metric's bound;
* ``worse`` -- it is (exit code 2);
* ``unresolved`` -- the run-to-run spread of either report is wider
  than the bound, so the pair can show neither;
* ``skipped`` -- the metric is ``null`` in either report.

Bounds come from ``BENCHMARK.json``; the two end-to-end metrics that
file cannot list as such (``error_share``, an absolute bound, and
``recovery_s``) take theirs from :mod:`ledger.metrics`.  A sim-domain
metric repeats bit for bit under one seed, so its spread across
sub-seeds counts as noise only when the two reports used different seeds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ledger.metrics import END_TO_END

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds(benchmark_json: Path = BENCHMARK_JSON) -> Dict[str, float]:
    bounds = {spec.name: spec.bound for spec in END_TO_END}
    if benchmark_json.exists():
        listed = json.loads(benchmark_json.read_text(encoding="utf-8"))
        bounds.update({m["name"]: m["bound"] for m in listed["end_to_end"]})
    return bounds


def verdict(spec, bound: float, a: Dict[str, Any], b: Dict[str, Any],
            same_seed: bool) -> str:
    if a["value"] is None or b["value"] is None:
        return "skipped"
    worse_by = b["value"] - a["value"]
    if spec.better == "higher":
        worse_by = -worse_by
    limit = bound if spec.absolute else bound * abs(a["value"])
    noise = 0.0
    if spec.domain == "host" or not same_seed:
        noise = max(a["iqr"] or 0.0, b["iqr"] or 0.0)
    if noise > limit:
        return "unresolved"
    return "worse" if worse_by > limit else "ok"


def compare_reports(a: Dict[str, Any], b: Dict[str, Any],
                    bounds: Dict[str, float]
                    ) -> List[Tuple[str, str, Any, Any, str]]:
    """Rows ``(workload, metric, a value, b value, verdict)``."""
    same_seed = a["manifest"]["seed"] == b["manifest"]["seed"]
    rows = []
    for name, in_a in a["workloads"].items():
        in_b = b["workloads"].get(name)
        if in_b is None:
            continue
        for spec in END_TO_END:
            row_a = in_a["end_to_end"][spec.name]
            row_b = in_b["end_to_end"][spec.name]
            rows.append((name, spec.name, row_a["value"], row_b["value"],
                         verdict(spec, bounds[spec.name], row_a, row_b,
                                 same_seed)))
    return rows


def load_reports(path: Path) -> List[Dict[str, Any]]:
    """A report file, or a baseline file holding ``{"reports": [...]}``."""
    document = json.loads(path.read_text(encoding="utf-8"))
    return document.get("reports") or [document]


def main(baseline: Path, candidate: Optional[Path] = None) -> int:
    """Compare the first report of ``baseline`` with the last report of
    ``candidate`` -- or, given one baseline file, its first with its last."""
    reports = load_reports(baseline)
    if candidate is not None:
        reports += load_reports(candidate)
    rows = compare_reports(reports[0], reports[-1], load_bounds())
    for workload, metric, value_a, value_b, outcome in rows:
        print(f"{workload}  {metric}  {value_a}  {value_b}  {outcome}")
    counts = {outcome: sum(1 for row in rows if row[4] == outcome)
              for outcome in ("ok", "worse", "unresolved", "skipped")}
    print("  ".join(f"{key}={value}" for key, value in counts.items()))
    return 2 if counts["worse"] else 0
