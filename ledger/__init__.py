"""The layered performance ledger: this repository's benchmark.

Four fixed workloads driven only through ``repro.harness.Experiment``,
end-to-end metrics in two time domains (*host* = wall seconds of the
machine running the simulator, *sim* = simulated seconds), and a
per-layer table filled from one traced run per workload plus probes
that time each layer's public classes on their own.

* ``python -m ledger [--seed S] [--reps N] [--workload NAME ...] [--out FILE]``
  runs the whole ledger and prints every metric by name with its unit;
* ``python -m ledger compare A.json B.json`` applies the bounds in
  ``BENCHMARK.json`` to two reports;
* ``python3 -m ledger.run --workload W --seed N --seconds S --trace 0|1``
  is the one-workload entry the benchmark driver calls.

Everything that imports ``repro`` runs in a fresh single-threaded child
process (:mod:`ledger.child`), one after another; the parent only
spawns, times, aggregates and checks.  See ``ledger/README.md``.
"""
