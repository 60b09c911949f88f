"""Additional kernel coverage: callbacks, take(), determinism details."""

import pytest

from repro.sim import Network, NetworkParams, SeedTree, Simulator


def test_event_callbacks_fire_in_registration_order():
    sim = Simulator()
    event = sim.event()
    order = []
    event.add_callback(lambda e: order.append("first"))
    event.add_callback(lambda e: order.append("second"))
    event.succeed()
    sim.run()
    assert order == ["first", "second"]


def test_channel_take_caps_and_preserves_order():
    sim = Simulator()
    channel = sim.channel()
    for k in range(10):
        channel.put(k)
    assert channel.take(4) == [0, 1, 2, 3]
    assert channel.take(100) == [4, 5, 6, 7, 8, 9]
    assert channel.take(5) == []


def test_event_heap_is_stable_under_many_same_time_events():
    sim = Simulator()
    order = []
    for k in range(500):
        sim.call_after(1.0, order.append, k)
    sim.run()
    assert order == list(range(500))


def test_network_jitter_is_seed_deterministic():
    def arrival_times(seed):
        sim = Simulator()
        network = Network(sim, NetworkParams(), seed=SeedTree(seed))
        from repro.sim import Node
        a = Node(sim, network, "a")
        b = Node(sim, network, "b")
        times = []
        b.handle("p", lambda payload, src: times.append(sim.now))
        for _ in range(5):
            a.send("b", "p", None)
        sim.run()
        return times

    assert arrival_times(1) == arrival_times(1)
    assert arrival_times(1) != arrival_times(2)


def test_simulator_run_with_no_events_is_instant():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_process_repr_states():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    process = sim.spawn(worker())
    assert "running" in repr(process)
    sim.run()
    assert "done" in repr(process)
    victim = sim.spawn(worker())
    victim.kill()
    assert "killed" in repr(victim)
