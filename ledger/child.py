"""The fresh child process: everything that imports ``repro`` runs here.

``python -m ledger.child '<json task>'`` executes one task and prints
one JSON object as the last line of its standard output:

* ``{"task": "setup", "workload": W, "seed": S}`` -- import
  ``repro.harness`` and run the workload's configuration on a
  zero-length timeline (import + populate + boot); the parent times the
  whole process;
* ``{"task": "run", "workload": W, "seed": S, "traced": bool}`` -- one
  repetition: host seconds around ``Experiment.run()``, peak RSS, the
  sim-domain metrics, the result digest, the output checks, and for a
  traced run the source-T layer metrics;
* ``{"task": "probes"}`` -- the layer probes.

Timestamps are ``time.monotonic()``, which on Linux is one clock for
all processes, so the parent can nest these spans under its own.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _span(spans: list, name: str, start: float) -> None:
    spans.append({"name": name, "start": start, "end": time.monotonic()})


def task_setup(task: dict) -> dict:
    spans: list = []
    start = time.monotonic()
    from ledger import workloads
    import repro.harness  # noqa: F401  (the import is what is timed)
    _span(spans, "import", start)
    start = time.monotonic()
    workloads.experiment(task["workload"], task["seed"],
                         zero_length=True).run()
    _span(spans, "populate+boot", start)
    return {"spans": spans}


def task_run(task: dict) -> dict:
    spans: list = []
    start = time.monotonic()
    from ledger import extract, workloads
    workload = workloads.BY_NAME[task["workload"]]
    experiment = workloads.experiment(workload.name, task["seed"],
                                      traced=task["traced"])
    _span(spans, "import+configure", start)

    start = time.monotonic()
    host_start = time.perf_counter()
    result = experiment.run()
    host_s = time.perf_counter() - host_start
    _span(spans, "Experiment.run", start)

    start = time.monotonic()
    e2e = extract.end_to_end(result)
    summary = result.to_dict()
    out = {
        "seed": task["seed"],
        "host_s": host_s,
        "sim_s": workloads.SIM_S,
        "e2e": e2e,
        "digest": extract.digest(summary),
        "checks": extract.run_checks(workload.steady,
                                     workload.name == "shard_2pc",
                                     result, e2e, summary),
    }
    if task["traced"]:
        out["layers"], out["reasons"] = extract.traced_layers(result, e2e)
    _span(spans, "extract", start)
    # ru_maxrss is in KiB on Linux; read last so the analysis counts too.
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["spans"] = spans
    return out


def task_probes(task: dict) -> dict:
    from ledger import probes
    return probes.run_all()


TASKS = {"setup": task_setup, "run": task_run, "probes": task_probes}


def main(argv) -> int:
    task = json.loads(argv[1])
    print(json.dumps(TASKS[task["task"]](task)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
