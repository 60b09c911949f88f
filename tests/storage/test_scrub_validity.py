"""Checker validity for storage faults: the unscrubbed mutant must fail.

The engine is deliberately defensive (free-choice value recovery merges
competing batches, watermark learning never re-proposes over a decided
peer), so random schedules almost never let a single amnesiac acceptor
break safety.  This test forces the one schedule the rejoin fence
exists for, deterministically:

* partition replicas r1, r2 away from a 5-replica cluster;
* decide and ack commands on the quorum {r0, r3, r4}, with r0's disk
  inside an fsync-lie window, so r0's votes are volatile;
* crash r0 (its votes evaporate), permanently crash r3 and r4, heal the
  partition, and reboot r0;
* the surviving majority {r0, r1, r2} now depends entirely on what
  r0's disk remembers about the partition-era instances.

With the scrub-and-fence recovery, r0 refuses the acceptor role until
every peer reports its high-water marks; two peers are dead, so the
fence never installs and the group stays safely blocked (consistency
over availability).  With recovery mutated to trust the disk
(``scrub=False``), r0 rejoins as an amnesiac, the new leader finds no
trace of the acked commands, fills their instances with fresh values,
and the checker must catch the divergence -- otherwise it could not
tell a self-healing recovery from one that silently loses data.
"""

import pytest

from repro.faults.checker import SafetyChecker
from repro.sim import (
    DiskParams,
    Network,
    NetworkParams,
    Node,
    SeedTree,
    Simulator,
    StorageFault,
    StorageNemesis,
)
from repro.treplica import TreplicaConfig, TreplicaRuntime

from tests.storage.helpers import STORAGE_EVENTS, audit
from tests.treplica.helpers import KVApp, Put

pytestmark = pytest.mark.storage

REPLICAS = 5
MINORITY = (1, 2)          # partitioned away while the lies accumulate
DOOMED = (3, 4)            # crash permanently with r0's votes
FAULTED = 0


def amnesia_split(seed: int, *, scrub: bool):
    sim = Simulator()
    tree = SeedTree(seed)
    tracer = audit(sim, SafetyChecker.KINDS + STORAGE_EVENTS)
    network = Network(sim, NetworkParams(), seed=tree)
    nodes = [Node(sim, network, f"r{i}") for i in range(REPLICAS)]
    names = [node.name for node in nodes]
    nemesis = StorageNemesis(sim, seed=tree)
    for node in nodes:
        nemesis.attach(node.disk)
    sim.storage_faults = nemesis
    fault = StorageFault(kind="fsynclie", disk=nodes[FAULTED].disk.name)
    sim.call_at(0.5, nemesis.add_window, fault)
    sim.call_at(3.8, nemesis.remove_window, fault)

    config = TreplicaConfig()
    runtimes = []
    for i, node in enumerate(nodes):
        runtime = TreplicaRuntime(node, names, i, KVApp(),
                                  config=config, seed=tree)
        runtime.start()
        runtimes.append(runtime)

    def put_blocking(replica, key, value, timeout):
        results = []

        def client():
            result = yield from runtimes[replica].execute(Put(key, value))
            results.append(result)

        nodes[replica].spawn(client(), name=f"client-{key}")
        deadline = sim.now + timeout
        while not results and sim.now < deadline:
            sim.run(until=sim.now + 0.1)
        return results[0] if results else None

    sim.run(until=1.5)
    cut = [pair for minority in MINORITY for other in range(REPLICAS)
           if other not in MINORITY
           for pair in ((names[minority], names[other]),
                        (names[other], names[minority]))]
    network.cut(cut)
    sim.run(until=2.5)  # let the majority's failure detector settle

    acked_in_partition = 0
    for k in range(6):
        if put_blocking(3, f"acked{k}", k, timeout=1.0) is not None:
            acked_in_partition += 1

    sim.run(until=3.5)
    nodes[FAULTED].crash()       # fsync-lied votes evaporate here
    for doomed in DOOMED:
        nodes[doomed].crash()
        runtimes[doomed] = None
    sim.run(until=4.0)           # the lying window has closed (t=3.8)
    network.mend(cut)
    nodes[FAULTED].restart()
    if not scrub:
        # The mutation: recovery that trusts the disk, no scrub, no fence.
        nodes[FAULTED].disk.nemesis = None
    rebooted = TreplicaRuntime(nodes[FAULTED], names, FAULTED, KVApp(),
                               config=config, seed=tree)
    rebooted.start()
    runtimes[FAULTED] = rebooted
    sim.run(until=12.0)          # give the survivors time to elect and run

    acked_after_heal = 0
    for k in range(6):
        if put_blocking(1, f"after{k}", k, timeout=2.0) is not None:
            acked_after_heal += 1
    sim.run(until=sim.now + 3.0)

    return {
        "checker": SafetyChecker(tracer),
        "nemesis": nemesis,
        "acked_in_partition": acked_in_partition,
        "acked_after_heal": acked_after_heal,
        "scrub_report": rebooted.scrub_report,
    }


def test_unscrubbed_amnesia_fails_the_checker():
    run = amnesia_split(7, scrub=False)
    assert run["nemesis"].counters["lied_writes"] > 0
    assert run["acked_in_partition"] > 0, "the doomed quorum never acked"
    assert run["acked_after_heal"] > 0, \
        "the amnesiac quorum made no progress; nothing could diverge"
    violations = run["checker"].violations()
    assert violations, "checker passed an amnesiac recovery: it is vacuous"
    assert any(v.kind in ("agreement", "deliver-agreement", "lost-ack")
               for v in violations)


def test_scrubbed_recovery_same_schedule_is_safe():
    """Control: the identical schedule with the real scrub-and-fence
    recovery.  Two fence peers are dead, so the fence never installs and
    the group blocks rather than guess -- no acks, but no violations."""
    run = amnesia_split(7, scrub=True)
    assert run["nemesis"].counters["lied_writes"] > 0
    assert run["acked_in_partition"] > 0
    assert run["scrub_report"] is not None and run["scrub_report"]["fence"]
    run["checker"].assert_ok()
    assert run["acked_after_heal"] == 0, \
        "a fenced replica must not help form a quorum"
