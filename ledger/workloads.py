"""The four fixed workloads and the timeline they all share.

This module imports ``repro`` only inside :func:`experiment`, so the
parent process (and ``BENCHMARK.json`` checks) can read the table
without the simulator on the path.

Every workload runs on ``bench_scale()`` with the timeline compressed
to ``TIME_DIV`` (600 paper-seconds -> ``SIM_S`` simulated seconds,
checkpoints every 120 / ``TIME_DIV`` sim-s): the benchmark driver makes
about a hundred runs inside an hour, so one repetition has to fit in
single-digit host seconds.  The issue's rule applies: all four
workloads are shortened together, none is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Timeline compression applied on top of ``bench_scale()`` (which is 5).
TIME_DIV = 15.0
#: Simulated seconds of one run: (30 + 540 + 30) paper-seconds / TIME_DIV.
SIM_S = 600.0 / TIME_DIV

#: Sub-seeds: repetition ``i`` of a run with ``--seed S`` simulates seed
#: ``S + (i % SUB_SEEDS) * SUB_SEED_STRIDE``.  Sim-domain metrics depend
#: on the seed by several percent (the closed loops sit near saturation),
#: so a run reports their mean over three sub-seeds; a repetition past
#: the third repeats a sub-seed and must reproduce its digest.
SUB_SEEDS = 3
SUB_SEED_STRIDE = 1_000_003


def sub_seed(seed: int, rep: int) -> int:
    return seed + (rep % SUB_SEEDS) * SUB_SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str      # load-generation model and its rate or client count
    steady: bool   # fault-free: no interaction may fail
    why: str       # one line, copied into BENCHMARK.json


WORKLOADS = (
    Workload(
        "browse_steady", "closed, 475 clients", True,
        "closed loop, 475 clients, 95% reads, no faults: web tier, proxy, "
        "load source, kernel and network do the work; Paxos, WAL, Treplica "
        "nearly idle, so a consensus- or disk-side change must not move it"),
    Workload(
        "order_steady", "closed, 475 clients", True,
        "closed loop, 475 clients, 50% writes, no faults: Paxos batching, "
        "WAL fsync, Treplica apply and checkpoint encode carry the run; a "
        "gain for reads that costs writes shows here"),
    Workload(
        "crash_failover", "open, 200 arrivals per sim-s", False,
        "open loop, 200 Poisson arrivals per sim-s, two followers crash 30 "
        "paper-s apart and recover: failure detection, proxy failover, "
        "checkpoint load, catch-up; the only workload with recoveries"),
    Workload(
        "shard_2pc", "closed, 475 clients", True,
        "closed loop, 475 clients, 50% writes, two shards of three replicas: "
        "the second cluster class, shard router and cross-shard 2PC; guards "
        "anything that changes per-group cost"),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def experiment(name: str, seed: int, *, zero_length: bool = False,
               traced: bool = False):
    """The ``repro.harness.Experiment`` for one workload (child only).

    ``zero_length`` keeps import + populate + boot and drops the
    timeline (the set-up measurement); ``traced`` switches on every
    observer for the per-layer run.
    """
    from dataclasses import replace

    from repro.harness import Experiment, bench_scale

    scale = replace(bench_scale(), time_div=TIME_DIV)
    if zero_length:
        scale = replace(scale, ramp_up_s=0.0, measure_s=0.0, ramp_down_s=0.0)
    exp = Experiment(scale=scale, seed=seed)
    if name == "browse_steady":
        exp = exp.load("closed", wips=1900, mix="browsing").baseline()
    elif name == "order_steady":
        exp = exp.load("closed", wips=1900, mix="ordering").baseline()
    elif name == "crash_failover":
        # Where this departs from the issue, and why (README, "What
        # changed from the issue"): fixed follower targets instead of
        # two_crashes(), whose random pick crashes one replica twice
        # under some seeds (one recovery) and the coordinator under
        # others (an election stall that puts p99 anywhere from 0.4 to
        # 1.4 s); wips=800 instead of 1200, which three of five
        # replicas cannot carry, so that the crashes show as failover
        # delay and not as an overload whose depth varies threefold with
        # the seed; and clients that re-issue a reset connection at once,
        # so a crash delays interactions instead of failing them.
        exp = (exp.load("open", wips=800, mix="shopping",
                        population=100_000, retry="immediate")
               .faults("crash@240:2,crash@270:4"))
    elif name == "shard_2pc":
        exp = (exp.configure(replicas=3).shards(2)
               .load("closed", wips=1900, mix="ordering").baseline())
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{', '.join(BY_NAME)}")
    if traced:
        exp = exp.observe().trace().record().check_safety()
    return exp
