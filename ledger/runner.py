"""The parent side: spawn children one after another, time them, record
spans, and fold what they return into a report.

The parent never imports ``repro``.  Every set-up, repetition, traced
run and probe batch is one fresh ``python -m ledger.child`` process --
single-threaded, strictly sequential (the box has two cores, and a
second busy process halves the speed the first one sees).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ledger import metrics, workloads

ROOT = Path(__file__).resolve().parent.parent
#: Everything the ledger writes unasked lands here (listed in .gitignore).
OUT_DIR = ROOT / ".ledger_out"
#: One child may not outlive this (the driver allows a run 180 s in all).
CHILD_TIMEOUT_S = 150.0
#: Timed set-up children per run, after one untimed child that lets the
#: interpreter write its bytecode cache.
SETUP_REPS = 5
MIN_REPS = workloads.SUB_SEEDS


class ChildFailed(RuntimeError):
    """A child exited non-zero, timed out, or printed no result."""


class Spans:
    """The ledger's own spans, kept in memory until the report is written:
    name, start, end (seconds since the ledger started), parent, workload."""

    def __init__(self) -> None:
        self.origin = time.monotonic()
        self.rows: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             workload: Optional[str] = None) -> Iterator[int]:
        row = {"name": name, "start": time.monotonic() - self.origin,
               "end": None, "parent": parent, "workload": workload}
        self.rows.append(row)
        index = len(self.rows) - 1
        try:
            yield index
        finally:
            row["end"] = time.monotonic() - self.origin

    def adopt(self, child_rows: List[Dict[str, Any]], parent: int) -> None:
        """Nest spans a child reported (absolute monotonic times)."""
        for child in child_rows:
            self.rows.append({
                "name": child["name"], "start": child["start"] - self.origin,
                "end": child["end"] - self.origin, "parent": parent,
                "workload": self.rows[parent]["workload"]})


def run_child(task: Dict[str, Any], spans: Spans, name: str,
              parent: Optional[int], workload: Optional[str]) -> Dict[str, Any]:
    """One fresh child; returns its result with ``wall_s`` (spawn to exit)."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Children share one bytecode cache under the ledger's output
    # directory, whatever the caller's environment says, so that set-up
    # time means "import with compiled bytecode" on every machine.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    command = [sys.executable, "-m", "ledger.child", json.dumps(task)]
    with spans.span(name, parent, workload) as index:
        start = time.perf_counter()
        try:
            done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                                  capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{name}: no result after "
                              f"{CHILD_TIMEOUT_S:.0f} s") from exc
        wall_s = time.perf_counter() - start
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(f"{name}: exit code {done.returncode}\n"
                          f"{done.stderr[-2000:]}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spans.adopt(result.pop("spans", []), index)
    result["wall_s"] = wall_s
    return result


# ----------------------------------------------------------------------
# measuring one workload
# ----------------------------------------------------------------------
def measure_setup(name: str, seed: int, spans: Spans, parent: int
                  ) -> List[float]:
    """Set-up times: spawn a child, import ``repro.harness``, populate
    and boot the workload's deployment on a zero-length timeline, exit."""
    task = {"task": "setup", "workload": name, "seed": seed}
    run_child(task, spans, "setup:warm", parent, name)
    return [run_child(task, spans, f"setup:{i}", parent, name)["wall_s"]
            for i in range(SETUP_REPS)]


def measure_reps(name: str, seed: int, spans: Spans, parent: int,
                 min_reps: int, budget_s: float) -> List[Dict[str, Any]]:
    """Untraced repetitions: at least ``min_reps``, then as many more as
    still end inside ``budget_s`` (judged by the slowest one so far)."""
    reps: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        index = len(reps)
        reps.append(run_child(
            {"task": "run", "workload": name, "traced": False,
             "seed": workloads.sub_seed(seed, index)},
            spans, f"rep:{index}", parent, name))
        slowest = max(rep["wall_s"] for rep in reps)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + slowest > budget_s:
            return reps


def layer_rows(source: str, values: Dict[str, Any], reasons: Dict[str, str]
               ) -> Dict[str, Dict[str, Any]]:
    """Report rows for the per-layer metrics of one source ("T" or "P")."""
    return {spec.name: {"value": values.get(spec.name), "unit": spec.unit,
                        "layer": spec.layer,
                        "reason": reasons.get(spec.name)}
            for spec in metrics.PER_LAYER if spec.source == source}


def summary_row(values: List[Optional[float]], centre=statistics.median
                ) -> Dict[str, Any]:
    """Centre, extremes and spread of one metric's per-rep values.

    ``spread`` is the distance between the first and the third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median --
    the figure the benchmark driver computes across runs.
    """
    kept = [v for v in values if v is not None]
    if not kept:
        return {"value": None, "reps": values, "min": None, "max": None,
                "iqr": None, "spread": None}
    median = statistics.median(kept)
    iqr = 0.0
    if len(kept) >= 2:
        quartiles = statistics.quantiles(kept, n=4)
        iqr = quartiles[2] - quartiles[0]
    return {"value": centre(kept), "reps": values, "min": min(kept),
            "max": max(kept), "iqr": iqr,
            "spread": iqr / abs(median) if median else None}


def run_workload(name: str, seed: int, spans: Spans, *, setup: bool,
                 min_reps: int, budget_s: float, traced: bool
                 ) -> Dict[str, Any]:
    """Measure one workload and fold the children's answers together."""
    workload = workloads.BY_NAME[name]
    checks: List[Dict[str, Any]] = []

    def check(label: str, ok: bool, detail: str) -> None:
        checks.append({"name": label, "ok": bool(ok), "detail": detail})

    with spans.span(f"workload:{name}", None, name) as parent:
        setup_s = measure_setup(name, seed, spans, parent) if setup else []
        reps = measure_reps(name, seed, spans, parent, min_reps, budget_s)
        trace = run_child(
            {"task": "run", "workload": name, "traced": True,
             "seed": workloads.sub_seed(seed, 0)},
            spans, "traced", parent, name) if traced else None

    # Host-domain metrics: the median over every repetition (host noise
    # is contamination).  Sim-domain metrics: the mean over the first
    # repetition of each sub-seed -- each value is exact, the sub-seeds
    # sample the metric's own seed-to-seed distribution (two-peaked on
    # crash_failover, where a median would flip between the peaks), and
    # the value does not depend on how many repetitions the budget allowed.
    distinct = reps[:workloads.SUB_SEEDS]
    per_rep = {
        "host_s_per_sim_s": [r["host_s"] / r["sim_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": setup_s,
    }
    for metric in ("awips", "wirt_p50_s", "wirt_p99_s", "error_share",
                   "recovery_s"):
        per_rep[metric] = [r["e2e"][metric] for r in distinct]
    end_to_end = {}
    for spec in metrics.END_TO_END:
        row = summary_row(per_rep[spec.name], statistics.median
                          if spec.domain == "host" else statistics.mean)
        row.update(unit=spec.unit, domain=spec.domain, better=spec.better)
        end_to_end[spec.name] = row

    # Output checks -----------------------------------------------------
    for index, rep in enumerate(reps + ([trace] if trace else [])):
        label = f"rep{index}" if index < len(reps) else "traced"
        for check_name, ok, detail in rep["checks"]:
            check(f"{label}.{check_name}", ok, detail)
    for index, rep in enumerate(reps[workloads.SUB_SEEDS:],
                                start=workloads.SUB_SEEDS):
        first = reps[index % workloads.SUB_SEEDS]
        check(f"rep{index}.digest_reproduces_rep{index % workloads.SUB_SEEDS}",
              rep["digest"] == first["digest"],
              f"{rep['digest'][:12]} vs {first['digest'][:12]}")

    per_layer: Dict[str, Dict[str, Any]] = {}
    if trace is not None:
        check("traced.digest_equals_untraced",
              trace["digest"] == reps[0]["digest"],
              f"{trace['digest'][:12]} vs {reps[0]['digest'][:12]}")
        untraced_s = statistics.median(r["host_s"] for r in reps)
        values = dict(trace["layers"])
        values["obs.overhead_pct"] = 100.0 * (trace["host_s"] / untraced_s - 1)
        per_layer = layer_rows("T", values, trace["reasons"])

    return {
        "loop": workload.loop,
        "sub_seeds": [r["seed"] for r in distinct],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": {
            "reps": len(reps),
            "attempted": sum(r["e2e"]["attempted"] for r in reps),
            "failed": sum(r["e2e"]["failed"] for r in reps),
            "latency_samples": sum(r["e2e"]["samples"] for r in distinct),
        },
        "digests": [r["digest"] for r in reps],
        "traced_host_s": trace["host_s"] if trace else None,
        "checks": checks,
    }


def run_probes(spans: Spans) -> Dict[str, Dict[str, Any]]:
    """The layer probes, in their own child."""
    result = run_child({"task": "probes"}, spans, "probes", None, None)
    return layer_rows("P", result["layers"], result["reasons"])


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(seed: int) -> Dict[str, Any]:
    """What a reader needs to reproduce the run.  ``git_commit`` is
    ``None`` in the driver's checkout, which is not a git repository."""
    status = _git("status", "--porcelain")
    return {"seed": seed, "git_commit": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "time_div": workloads.TIME_DIV, "sim_s": workloads.SIM_S,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def close_report(report: Dict[str, Any], spans: Spans,
                 out: Optional[Path]) -> List[str]:
    """Attach the spans, write the report if asked, and name every
    failed output check on standard error; returns those names."""
    report["spans"] = spans.rows
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    failures = [f"{name}: {check['name']} ({check['detail']})"
                for name, workload in report["workloads"].items()
                for check in workload["checks"] if not check["ok"]]
    for failure in failures:
        print(f"FAILED  {failure}", file=sys.stderr)
    return failures
