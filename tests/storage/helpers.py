"""Shared storage-fault fixture: a replicated KV service on faulty disks.

Builds a 3- or 5-replica Treplica KV deployment with a
:class:`~repro.sim.disk.StorageNemesis` attached to every disk, runs a
multi-writer workload, injects one storage fault (torn-write window,
latent corruption, or fsync lies) on a chosen replica, crash-reboots
that replica so recovery has to scrub and repair, and hands back the
:class:`~repro.faults.checker.SafetyChecker` plus the injection and
repair counters.  Used by the seed sweep and the checker-validity
(unscrubbed recovery) mutation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.checker import SafetyChecker
from repro.sim import (
    DiskParams,
    Nemesis,
    NemesisParams,
    NemesisWindow,
    Network,
    NetworkParams,
    Node,
    SeedTree,
    Simulator,
    StorageFault,
    StorageNemesis,
)
from repro.sim.trace import EventLog, Tracer
from repro.treplica import TreplicaConfig, TreplicaRuntime

from tests.treplica.helpers import KVApp, Put

FAULT_KINDS = ("torn", "corrupt", "fsynclie")

#: Event kinds the storage layer and the scrub-and-repair path emit.
STORAGE_EVENTS = ("storage.torn_write", "storage.torn_object",
                  "storage.corrupted", "storage.fsynclie_lost",
                  "storage.fence_installed", "recovery.scrub",
                  "recovery.repaired_from_peer")


def audit(sim: Simulator, kinds) -> Tracer:
    """Attach an event log to ``sim`` and a tracer keeping ``kinds``."""
    sim.event_log = EventLog(sim)
    tracer = Tracer()
    sim.event_log.subscribe(kinds, tracer.take)
    return tracer


@dataclass
class StorageRun:
    """Everything a safety assertion needs from one finished run."""

    checker: SafetyChecker
    tracer: Tracer
    nemesis: StorageNemesis
    faulted: int
    acks: int
    scrub_report: Optional[dict]
    recovered: bool
    logs: List[Tuple]

    def damage(self) -> float:
        """Total faults the nemesis actually landed on the disk."""
        counters = self.nemesis.counters
        return (counters["torn_writes"] + counters["corrupted_frames"]
                + counters["corrupted_objects"] + counters["lied_writes"])

    def assert_converged(self) -> None:
        assert self.logs, "no live replicas"
        assert all(log == self.logs[0] for log in self.logs), \
            "replica apply logs diverge"


def run_kv_cluster_under_storage_fault(
        replicas: int, seed: int, kind: str, *,
        scrub: bool = True,
        crash_at: float = 4.0, reboot_at: float = 5.0,
        workload_s: float = 8.0, settle_s: float = 8.0,
        drop_p: float = 0.0, delay_p: float = 0.0,
        delay_mean_s: float = 0.05, co_crash: int = 0) -> StorageRun:
    """One seed-deterministic KV run with a faulty disk on one replica.

    The fault targets replica ``seed % replicas``; windowed kinds are
    active from t=1 until just past ``crash_at`` so the crash lands
    inside the window, and latent corruption strikes one second before
    the crash.  The faulted replica is crashed at ``crash_at``, rebooted
    at ``reboot_at`` (recovery scrubs the disk unless ``scrub=False``,
    the checker-validity mutation), and the cluster then settles.
    Writers run on the healthy replicas only, so acked commands must
    survive the faulted replica's damage.

    ``drop_p``/``delay_p`` optionally add a message nemesis for the whole
    workload window.  ``co_crash`` permanently crashes that many healthy
    replicas at ``crash_at`` alongside the faulted one: commands the dead
    replicas decided with the faulted replica's (about-to-be-lost) votes
    stay pending until it rejoins, so post-rejoin quorums must rely on
    what its disk remembers.  Together they make individual acceptor
    votes load-bearing, which is what exposes an amnesiac (unscrubbed,
    unfenced) acceptor to the checker in the mutation tests.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown storage fault kind {kind!r}")
    sim = Simulator()
    tree = SeedTree(seed)
    tracer = audit(sim, SafetyChecker.AUDIT_KINDS + STORAGE_EVENTS)
    message_nemesis = None
    if drop_p > 0.0 or delay_p > 0.0:
        message_nemesis = Nemesis(sim, seed=tree)
        message_nemesis.add_window(NemesisWindow(
            0.5, workload_s, NemesisParams(drop_p=drop_p, delay_p=delay_p,
                                           delay_mean_s=delay_mean_s)))
    network = Network(sim, NetworkParams(), seed=tree,
                      nemesis=message_nemesis)
    faulted = seed % replicas
    # The faulted replica gets a deliberately slow disk so the crash is
    # overwhelmingly likely to land mid-group-commit (a torn write needs
    # an in-flight write to tear).
    slow = DiskParams(sync_write_latency_s=0.12, write_bandwidth_mb_s=8.0)
    nodes = [Node(sim, network, f"r{i}",
                  disk_params=slow if i == faulted else None)
             for i in range(replicas)]
    names = [node.name for node in nodes]
    nemesis = StorageNemesis(sim, seed=tree)
    for node in nodes:
        nemesis.attach(node.disk)
    sim.storage_faults = nemesis  # turns on the acceptor-vote audit trail

    disk_name = nodes[faulted].disk.name
    if kind == "corrupt":
        nemesis.schedule_corruption(crash_at - 1.0, disk_name)
    else:
        nemesis.add_window(StorageFault(
            kind=kind, disk=disk_name, start=1.0, end=crash_at + 0.5))

    config = TreplicaConfig(checkpoint_interval_s=2.0)
    runtimes: List[Optional[TreplicaRuntime]] = []
    for i, node in enumerate(nodes):
        runtime = TreplicaRuntime(node, names, i, KVApp(),
                                  config=config, seed=tree)
        runtime.start()
        runtimes.append(runtime)

    acks = [0]
    for i in range(replicas):
        if i == faulted:
            continue  # its clients would die with the crash

        def worker(i=i):
            k = 0
            while sim.now < workload_s:
                yield from runtimes[i].execute(Put(f"r{i}.k{k}", k))
                acks[0] += 1
                k += 1
                yield sim.timeout(0.02 + 0.01 * (i % 3))

        nodes[i].spawn(worker(), name=f"writer-{i}")

    sim.run(until=crash_at)
    nodes[faulted].crash()
    runtimes[faulted] = None
    for k in range(co_crash):
        dead = (faulted + 1 + k) % replicas
        nodes[dead].crash()
        runtimes[dead] = None
    sim.run(until=reboot_at)
    nodes[faulted].restart()
    if not scrub:
        # Checker-validity mutation: a recovery that trusts the disk.
        # Detaching the nemesis disables the scrub-and-repair path (and
        # the rejoin fence), but the damage is already on the platter.
        nodes[faulted].disk.nemesis = None
    rebooted = TreplicaRuntime(nodes[faulted], names, faulted, KVApp(),
                               config=config, seed=tree)
    rebooted.start()
    runtimes[faulted] = rebooted
    sim.run(until=workload_s + settle_s)

    logs = [tuple(rt.app.state["log"])
            for rt in runtimes if rt is not None]
    return StorageRun(checker=SafetyChecker(tracer), tracer=tracer,
                      nemesis=nemesis, faulted=faulted, acks=acks[0],
                      scrub_report=rebooted.scrub_report,
                      recovered=rebooted.ready, logs=logs)
