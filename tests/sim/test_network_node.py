"""Tests for the network and node crash/restart semantics."""

import pytest

from repro.sim import Network, NetworkParams, Node, SeedTree, SimulationError, Simulator


def make_cluster(n=2, **params):
    sim = Simulator()
    network = Network(sim, NetworkParams(**params) if params else
                      NetworkParams(jitter_mean_s=1e-9), seed=SeedTree(1))
    nodes = [Node(sim, network, f"n{i}") for i in range(n)]
    return sim, network, nodes


def test_message_delivered_to_handler():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    b.handle("port", lambda payload, src: received.append((payload, src)))
    a.send("n1", "port", {"k": 1})
    sim.run()
    assert received == [({"k": 1}, "n0")]


def test_message_latency_includes_size_cost():
    sim, network, nodes = make_cluster(bandwidth_mb_s=10.0, base_latency_s=0.1,
                                       jitter_mean_s=1e-12)
    a, b = nodes
    arrival = []
    b.handle("p", lambda payload, src: arrival.append(sim.now))
    a.send("n1", "p", "big", size_mb=5.0)
    sim.run()
    assert arrival[0] == pytest.approx(0.1 + 0.5, rel=1e-3)


def test_send_to_unknown_node_is_error():
    sim, network, nodes = make_cluster()
    with pytest.raises(SimulationError):
        network.send("n0", "ghost", "p", None)


def test_duplicate_node_name_rejected():
    sim, network, nodes = make_cluster()
    with pytest.raises(SimulationError):
        Node(sim, network, "n0")


def test_message_to_crashed_node_dropped():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    b.handle("p", lambda payload, src: received.append(payload))
    b.crash()
    a.send("n1", "p", "lost")
    sim.run()
    assert received == []


def test_crashed_node_cannot_send():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    b.handle("p", lambda payload, src: received.append(payload))
    a.crash()
    a.send("n1", "p", "from-the-grave")
    sim.run()
    assert received == []


def test_inflight_message_across_restart_dropped():
    sim, network, nodes = make_cluster(base_latency_s=1.0, jitter_mean_s=1e-12)
    a, b = nodes
    received = []
    a.send("n1", "p", "stale")  # arrives at t=1.0
    sim.call_after(0.2, b.crash)
    sim.call_after(0.5, b.restart)
    sim.call_after(0.6, lambda: b.handle("p", lambda pl, src: received.append(pl)))
    sim.run()
    assert received == []  # incarnation changed while in flight


def test_partition_blocks_both_directions():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    a.handle("p", lambda pl, src: received.append(pl))
    b.handle("p", lambda pl, src: received.append(pl))
    both = [("n0", "n1"), ("n1", "n0")]
    network.cut(both)
    a.send("n1", "p", 1)
    b.send("n0", "p", 2)
    sim.run()
    assert received == []
    network.mend(both)
    a.send("n1", "p", 3)
    sim.run()
    assert received == [3]


def test_crash_kills_node_processes():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    trace = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            trace.append(sim.now)

    node.spawn(proc())
    sim.call_after(2.5, node.crash)
    sim.run(until=10.0)
    assert trace == [1.0, 2.0]


def test_finished_processes_are_dropped_in_bulk():
    # 10k short processes, a few alive at a time: the node's process list
    # stays bounded although no per-process reap event runs.
    sim, network, nodes = make_cluster()
    node = nodes[0]
    longest = 0

    def short():
        yield sim.timeout(0.001)

    def spawner():
        nonlocal longest
        for _ in range(10_000):
            node.spawn(short())
            longest = max(longest, len(node._processes))
            yield sim.timeout(0.0005)

    sim.spawn(spawner())
    sim.run()
    assert longest <= 64


def test_crash_kills_every_waiting_process_among_swept_ones():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    waiting = []
    resumed = []

    def short():
        yield sim.timeout(0.001)

    def waiter(tag):
        yield sim.timeout(10.0)
        resumed.append(tag)

    def spawner():
        for i in range(1000):
            node.spawn(short())
            if i % 10 == 0:
                waiting.append(node.spawn(waiter(i)))
            yield sim.timeout(0.001)

    sim.spawn(spawner())
    sim.run(until=2.0)
    assert len(node._processes) < 300  # swept: 1100 were spawned
    assert all(not process.finished for process in waiting)
    node.crash()
    assert all(process.killed for process in waiting)
    node.restart()
    sim.run(until=20.0)
    assert resumed == []


def test_failed_node_process_keeps_its_error():
    # A node owns its processes: one that raises records the error and
    # the simulation goes on, as a crashed OS process leaves its machine up.
    sim, network, nodes = make_cluster()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    process = nodes[0].spawn(bad())
    sim.call_after(2.0, lambda: None)
    sim.run()
    assert isinstance(process.error, KeyError)
    assert sim.now == 2.0


def test_crash_clears_handlers():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    b.handle("p", lambda pl, src: received.append(pl))
    b.crash()
    b.restart()
    a.send("n1", "p", "no-handler")
    sim.run()
    assert received == []


def test_cannot_spawn_on_crashed_node():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    node.crash()
    with pytest.raises(SimulationError):
        node.spawn((x for x in []))


def test_restart_requires_crashed_node():
    sim, network, nodes = make_cluster()
    with pytest.raises(SimulationError):
        nodes[0].restart()


def test_crash_listener_invoked_and_persists():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    crashes = []
    node.add_crash_listener(lambda n: crashes.append(sim.now))
    node.crash()
    node.restart()
    node.crash()
    assert crashes == [0.0, 0.0]
    assert node.crash_count == 2


def test_reboot_runs_boot_function():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    booted = []
    node.boot = lambda n: booted.append(n.incarnation)
    node.crash()
    node.reboot()
    assert booted == [1]
    assert node.alive


def test_disk_survives_crash_cpu_does_not():
    sim, network, nodes = make_cluster()
    node = nodes[0]
    node.disk.write_object("k", "v", 0.01)
    sim.run()
    old_cpu = node.cpu
    node.crash()
    node.restart()
    assert node.disk.peek("k") == "v"
    assert node.cpu is not old_cpu


def test_network_stats_count_messages():
    sim, network, nodes = make_cluster()
    a, b = nodes
    b.handle("p", lambda pl, src: None)
    for _ in range(5):
        a.send("n1", "p", None, size_mb=0.001)
    sim.run()
    assert network.messages_sent == 5
    assert network.messages_delivered == 5
    assert network.mb_sent == pytest.approx(0.005)


# ----------------------------------------------------------------------
# asymmetric (one-way) partitions, and cuts that overlap
# ----------------------------------------------------------------------
def test_block_oneway_cuts_only_one_direction():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    a.handle("p", lambda pl, src: received.append(("a", pl)))
    b.handle("p", lambda pl, src: received.append(("b", pl)))
    network.cut([("n0", "n1")])
    a.send("n1", "p", "lost")   # n0 -> n1 is cut
    b.send("n0", "p", "heard")  # the reverse still works
    sim.run()
    assert received == [("a", "heard")]


def test_block_oneway_drops_messages_already_in_flight():
    sim, network, nodes = make_cluster(base_latency_s=1.0, jitter_mean_s=1e-12)
    a, b = nodes
    received = []
    b.handle("p", lambda pl, src: received.append(pl))
    a.send("n1", "p", "in-flight")  # would arrive at t=1.0
    sim.call_after(0.5, network.cut, [("n0", "n1")])
    sim.run()
    assert received == []  # cut while airborne: checked again at delivery


def test_unblock_oneway_heals_and_reblock_cuts_again():
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    b.handle("p", lambda pl, src: received.append(pl))
    network.cut([("n0", "n1")])
    a.send("n1", "p", 1)
    sim.run()
    network.mend([("n0", "n1")])
    a.send("n1", "p", 2)
    sim.run()
    network.cut([("n0", "n1")])
    a.send("n1", "p", 3)
    sim.run()
    assert received == [2]


def test_oneway_blocks_compose_with_symmetric_unblock():
    """Cuts are counted per directed pair: mending a symmetric cut
    leaves a one-way cut of the same pair in place, and the pair leaves
    the map (the switch's no-partition fast path) with its last cut."""
    sim, network, nodes = make_cluster()
    a, b = nodes
    received = []
    a.handle("p", lambda pl, src: received.append(("a", pl)))
    b.handle("p", lambda pl, src: received.append(("b", pl)))
    both = [("n0", "n1"), ("n1", "n0")]
    network.cut([("n0", "n1")])
    network.cut(both)
    network.mend(both)
    a.send("n1", "p", "lost")    # the one-way cut still holds
    b.send("n0", "p", "heard")
    sim.run()
    assert received == [("a", "heard")]
    network.mend([("n0", "n1")])
    assert network._blocked == {}
    a.send("n1", "p", "healed")
    sim.run()
    assert received == [("a", "heard"), ("b", "healed")]
