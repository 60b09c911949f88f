"""Faultload injection and watchdog auto-restart."""

import pytest

from repro.faults.faultload import FaultEvent, FaultInjector, Faultload
from repro.faults.watchdog import Watchdog
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator


class FakeCluster:
    def __init__(self, sim, network, n):
        self.nodes = [Node(sim, network, f"n{i}") for i in range(n)]

    def live_replicas(self, shard=None):
        return [i for i, node in enumerate(self.nodes) if node.alive]

    def crash_replica(self, index):
        self.nodes[index].crash()

    def reboot_replica(self, index):
        if not self.nodes[index].alive:
            self.nodes[index].reboot()


def make(n=3):
    sim = Simulator()
    network = Network(sim, NetworkParams(), seed=SeedTree(0))
    return sim, FakeCluster(sim, network, n)


# ----------------------------------------------------------------------
# faultload
# ----------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(1.0, "explode")


def test_faultload_counters():
    faultload = Faultload("x", (FaultEvent(1.0, "crash", 0),
                                FaultEvent(2.0, "crash", 1),
                                FaultEvent(3.0, "reboot", 1)))
    assert faultload.crash_count() == 2
    assert faultload.manual_interventions() == 1


def test_injector_crashes_fixed_target_at_time():
    sim, cluster = make()
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(5.0, "crash", 1),)))
    injector.arm()
    sim.run(until=4.9)
    assert cluster.nodes[1].alive
    sim.run(until=5.1)
    assert not cluster.nodes[1].alive
    assert injector.faults_injected == 1
    assert injector.injected == [(5.0, "crash", 1)]


def test_injector_random_target_picks_live_replica():
    sim, cluster = make()
    cluster.crash_replica(0)
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(1.0, "crash", None),)), rng=SeedTree(1).fork_random("f"))
    injector.arm()
    sim.run(until=2.0)
    assert injector.faults_injected == 1
    crashed = injector.injected[0][2]
    assert crashed in (1, 2)


def test_injector_reboot_counts_as_intervention():
    sim, cluster = make()
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(1.0, "crash", 2), FaultEvent(5.0, "reboot", 2))))
    injector.arm()
    sim.run(until=10.0)
    assert cluster.nodes[2].alive
    assert injector.interventions == 1
    assert injector.faults_injected == 1


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
def test_watchdog_restarts_crashed_node():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    booted = []
    node.boot = lambda n: booted.append(sim.now)
    watchdog = Watchdog(sim, node, poll_interval_s=0.5, restart_delay_s=1.0)
    watchdog.start()
    sim.call_after(3.0, node.crash)
    sim.run(until=10.0)
    assert node.alive
    assert len(watchdog.restarts) == 1
    assert 3.0 < watchdog.restarts[0] <= 5.0  # poll + restart delay
    assert booted


def test_watchdog_disabled_does_nothing():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, enabled=False)
    watchdog.start()
    sim.call_after(1.0, node.crash)
    sim.run(until=20.0)
    assert not node.alive
    assert watchdog.restarts == []


def test_watchdog_handles_repeated_crashes():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.2, restart_delay_s=0.5)
    watchdog.start()
    sim.call_after(1.0, node.crash)
    sim.call_after(10.0, node.crash)
    sim.run(until=20.0)
    assert node.alive
    assert len(watchdog.restarts) == 2


def test_watchdog_disable_mid_flight_prevents_restart():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.5, restart_delay_s=2.0)
    watchdog.start()
    sim.call_after(1.0, node.crash)
    sim.call_after(2.0, lambda: setattr(watchdog, "enabled", False))
    sim.run(until=20.0)
    assert not node.alive


def test_watchdog_cannot_start_twice():
    sim, cluster = make(1)
    watchdog = Watchdog(sim, cluster.nodes[0])
    watchdog.start()
    with pytest.raises(RuntimeError):
        watchdog.start()


# ----------------------------------------------------------------------
# crash-loop protection: exponential backoff + circuit breaker
# ----------------------------------------------------------------------
def crash_loop(sim, node, until):
    """Re-crash the node the instant the watchdog reboots it."""

    def boot_and_die(_node):
        if sim.now < until:
            sim.call_after(0.01, node.crash)

    node.boot = boot_and_die


def test_backoff_grows_exponentially_and_caps():
    sim, cluster = make(1)
    watchdog = Watchdog(sim, cluster.nodes[0], restart_delay_s=1.0,
                        backoff_factor=2.0, max_restart_delay_s=6.0,
                        max_restarts=None)
    assert watchdog.next_delay_s() == 1.0
    watchdog.consecutive_restarts = 1
    assert watchdog.next_delay_s() == 2.0
    watchdog.consecutive_restarts = 2
    assert watchdog.next_delay_s() == 4.0
    watchdog.consecutive_restarts = 3
    assert watchdog.next_delay_s() == 6.0  # capped


def test_crash_loop_trips_the_breaker():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.2, restart_delay_s=0.1,
                        backoff_factor=2.0, max_restart_delay_s=1.0,
                        max_restarts=3, stable_after_s=30.0)
    watchdog.start()
    crash_loop(sim, node, until=100.0)
    sim.call_after(1.0, node.crash)
    sim.run(until=100.0)
    assert watchdog.tripped
    assert len(watchdog.restarts) == 3  # gave up after max_restarts
    assert not node.alive               # ...and left the node down


def test_stable_stretch_resets_the_streak():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.2, restart_delay_s=0.5,
                        max_restarts=2, stable_after_s=5.0)
    watchdog.start()
    # Three isolated crashes, each followed by a long stable stretch:
    # more crashes than max_restarts, but never a *consecutive* streak.
    for at in (1.0, 20.0, 40.0):
        sim.call_after(at, node.crash)
    sim.run(until=60.0)
    assert not watchdog.tripped
    assert len(watchdog.restarts) == 3
    assert node.alive


def test_isolated_crashes_always_see_the_base_delay():
    # Restart timing parity with the pre-backoff watchdog: crashes spaced
    # beyond stable_after_s never pay more than restart_delay_s.
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.5, restart_delay_s=1.0,
                        stable_after_s=10.0)
    watchdog.start()
    sim.call_after(5.0, node.crash)
    sim.call_after(30.0, node.crash)
    sim.run(until=60.0)
    assert len(watchdog.restarts) == 2
    for crash_at, restarted_at in zip((5.0, 30.0), watchdog.restarts):
        # detection (<= poll) + base restart delay, never a backoff
        assert restarted_at - crash_at <= 0.5 + 1.0 + 1e-9


def test_tripped_breaker_still_allows_manual_reboot():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node, poll_interval_s=0.2, restart_delay_s=0.1,
                        max_restarts=1, stable_after_s=30.0)
    watchdog.start()
    crash_loop(sim, node, until=10.0)
    sim.call_after(1.0, node.crash)
    sim.run(until=20.0)
    assert watchdog.tripped and not node.alive
    node.reboot()   # the operator steps in
    sim.run(until=30.0)
    assert node.alive  # the tripped watchdog leaves it alone


# ----------------------------------------------------------------------
# faultload DSL
# ----------------------------------------------------------------------
def test_parse_full_spec():
    faultload = Faultload.parse("crash@240:*, crash@270:1, reboot@390:2")
    assert faultload.crash_count() == 2
    assert faultload.manual_interventions() == 1
    assert faultload.events[0] == FaultEvent(240.0, "crash", None)
    assert faultload.events[1] == FaultEvent(270.0, "crash", 1)
    assert faultload.events[2] == FaultEvent(390.0, "reboot", 2)


def test_parse_target_defaults_to_random():
    faultload = Faultload.parse("crash@100")
    assert faultload.events[0].replica is None


def test_parse_partition_and_heal():
    faultload = Faultload.parse("partition@60:3,heal@120:3")
    assert [e.kind for e in faultload.events] == ["partition", "heal"]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Faultload.parse("explode@100:1")
    with pytest.raises(ValueError):
        Faultload.parse("crash=100")
    with pytest.raises(ValueError):
        Faultload.parse("crash@abc:1")


def test_parse_empty_chunks_ignored():
    faultload = Faultload.parse("crash@10:0,, ,")
    assert len(faultload.events) == 1
