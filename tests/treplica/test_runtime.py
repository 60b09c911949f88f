"""Treplica runtime: execute semantics, ordering, reads, determinism."""

import pytest

from repro.treplica import TreplicaConfig
from repro.paxos.config import PaxosConfig

from tests.treplica.helpers import KVApp, Put, TreplicaCluster


def test_execute_blocks_until_applied_and_returns_result():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    result = cluster.put_blocking(0, "x", 42)
    assert result == 42
    assert cluster.runtimes[0].app.state["data"]["x"][0] == 42


def test_all_replicas_apply_all_actions():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    for k in range(10):
        cluster.put(k % 3, f"k{k}", k)
    cluster.run(5.0)
    for i in range(3):
        data = cluster.runtimes[i].app.state["data"]
        assert len(data) == 10


def test_replicas_converge_to_identical_logs():
    cluster = TreplicaCluster(5)
    cluster.run(1.0)
    for k in range(20):
        cluster.put(k % 5, f"k{k}", k)
    cluster.run(5.0)
    cluster.assert_converged()


def test_execute_applies_exactly_once_per_replica():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    for k in range(10):
        cluster.put(0, f"k{k}", k)
    cluster.run(5.0)
    for i in range(3):
        log = cluster.runtimes[i].app.state["log"]
        assert len(log) == 10
        assert len(set(log)) == 10


def test_reads_are_local_and_do_not_grow_the_queue():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    cluster.put_blocking(0, "x", 1)
    decided_before = cluster.runtimes[0].engine.stats["decisions"]
    for _ in range(50):
        value = cluster.runtimes[0].read(
            lambda app: app.state["data"]["x"][0])
        assert value == 1
    cluster.run(1.0)
    decided_after = cluster.runtimes[0].engine.stats["decisions"]
    assert decided_after - decided_before <= 1  # heartbeat noise only


def test_nondeterminism_passed_as_arguments_yields_identical_state():
    """The paper's Section 4 pattern: the clock is read *before* the action
    is created, so every replica stores the same timestamp."""
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    stamp = cluster.sim.now  # "local clock" read once, passed as argument
    runtime = cluster.runtimes[1]

    def client():
        yield from runtime.execute(Put("order", "book", stamp=stamp))

    cluster.nodes[1].spawn(client())
    cluster.run(3.0)
    stamps = {cluster.runtimes[i].app.state["data"]["order"][1]
              for i in range(3)}
    assert stamps == {stamp}


def test_get_state_returns_snapshot_not_live_reference():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    cluster.put_blocking(0, "x", 1)
    snapshot = cluster.runtimes[0].get_state()
    cluster.put_blocking(0, "x", 2)
    import pickle
    assert pickle.loads(snapshot)["data"]["x"][0] == 1


def test_ready_event_fires_on_fresh_boot():
    cluster = TreplicaCluster(3)
    cluster.run(2.0)
    for i in range(3):
        assert cluster.runtimes[i].ready


def test_concurrent_clients_all_get_results():
    cluster = TreplicaCluster(3)
    cluster.run(1.0)
    results = []

    def client(i):
        runtime = cluster.runtimes[i % 3]
        value = yield from runtime.execute(Put(f"c{i}", i))
        results.append(value)

    for i in range(15):
        cluster.nodes[i % 3].spawn(client(i))
    cluster.run(5.0)
    assert sorted(results) == list(range(15))
