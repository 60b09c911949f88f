"""Shared nemesis-test fixture: a lock-service cluster under message faults.

Builds the lightweight Treplica lock-service deployment (no TPC-W web
tier) with a :class:`~repro.sim.network.Nemesis` on the switch and a
tracer keeping the safety audit, runs a contended-lock workload,
and hands back the :class:`~repro.faults.checker.SafetyChecker` for the
run.  Used by the seed sweep and the checker-validity (mutation) tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.lockservice import LockClient, LockServiceApp
from repro.faults.checker import SafetyChecker
from repro.paxos.config import PaxosConfig
from repro.sim import (Nemesis, NemesisParams, NemesisWindow, Network,
                       NetworkParams, Node, SeedTree, Simulator)
from repro.sim.trace import EventLog, Tracer
from repro.treplica import TreplicaConfig, TreplicaRuntime


@dataclass
class NemesisRun:
    """Everything a safety assertion needs from one finished run."""

    checker: SafetyChecker
    tracer: Tracer
    nemesis: Nemesis
    network: Network
    acks: int


def run_lock_service_under_nemesis(
        replicas: int, seed: int, *,
        drop_p: float = 0.15, duplicate_p: float = 0.1,
        delay_p: float = 0.2, delay_mean_s: float = 0.05,
        classic_quorum_override: Optional[int] = None,
        enable_fast: bool = True,
        faulty_s: float = 8.0, settle_s: float = 4.0) -> NemesisRun:
    """One seed-deterministic lock-service run under an adversarial network.

    The nemesis misbehaves from t=0.5 to ``faulty_s`` (drop, duplicate,
    delay-reorder on all traffic), then the network heals and the cluster
    gets ``settle_s`` to converge.  One client per replica hammers a
    single hot lock, so commands race from every node while messages are
    being lost and reordered.
    """
    sim = Simulator()
    tree = SeedTree(seed)
    sim.event_log = EventLog(sim)
    tracer = Tracer()
    sim.event_log.subscribe(SafetyChecker.AUDIT_KINDS, tracer.take)
    nemesis = Nemesis(sim, seed=tree)
    nemesis.add_window(NemesisWindow(0.5, faulty_s, NemesisParams(
        drop_p=drop_p, duplicate_p=duplicate_p, delay_p=delay_p,
        delay_mean_s=delay_mean_s)))
    network = Network(sim, NetworkParams(), seed=tree, nemesis=nemesis)
    nodes = [Node(sim, network, f"r{i}") for i in range(replicas)]
    names = [node.name for node in nodes]
    config = TreplicaConfig(paxos=PaxosConfig(
        enable_fast=enable_fast,
        classic_quorum_override=classic_quorum_override))
    runtimes = []
    for i, node in enumerate(nodes):
        runtime = TreplicaRuntime(node, names, i, LockServiceApp(),
                                  config=config, seed=tree)
        runtime.start()
        runtimes.append(runtime)

    acks = [0]
    for i, runtime in enumerate(runtimes):
        client = LockClient(runtime, f"s{i}", ttl_s=120.0)

        def worker(client=client, i=i):
            yield from client.open_session()
            acks[0] += 1
            while True:
                granted = yield from client.acquire("hot")
                acks[0] += 1
                if granted is not None:
                    yield sim.timeout(0.05)
                    yield from client.release("hot")
                    acks[0] += 1
                yield sim.timeout(0.08 * (i + 1))

        nodes[i].spawn(worker(), name=f"locker-{i}")

    sim.run(until=faulty_s + settle_s)
    return NemesisRun(checker=SafetyChecker(tracer), tracer=tracer,
                      nemesis=nemesis, network=network, acks=acks[0])


#: The event kinds :class:`~repro.faults.faultload.FaultInjector` emits.
FAULT_KINDS = ("fault.inject", "fault.heal", "nemesis.window")


def record_faults(sim) -> Tracer:
    """Attach an event log to ``sim`` and return a tracer keeping what a
    fault injector records (read it with :func:`fault_records`)."""
    sim.event_log = EventLog(sim)
    tracer = Tracer()
    sim.event_log.subscribe(FAULT_KINDS, tracer.take)
    return tracer


def fault_records(tracer: Tracer) -> list:
    """``(time, kind, fault, target)`` per recorded injector event."""
    return [(event.time, event.kind, event["fault"], event.get("target"))
            for event in tracer.events]
