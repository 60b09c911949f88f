"""Faultload injection and watchdog auto-restart."""

import pytest

from repro.faults.faultload import FaultEvent, FaultInjector, Faultload
from repro.faults.watchdog import (BACKOFF_FACTOR, MAX_RESTART_DELAY_S,
                                   MAX_RESTARTS, POLL_INTERVAL_S,
                                   RESTART_DELAY_S, STABLE_AFTER_S, Watchdog)
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from tests.faults.helpers import fault_records, record_faults


class FakeCluster:
    def __init__(self, sim, network, n):
        self.nodes = [Node(sim, network, f"n{i}") for i in range(n)]
        self.watchdog_disabled = []

    def disable_watchdog(self, index):
        self.watchdog_disabled.append(index)

    def live_replicas(self, shard=None):
        return [i for i, node in enumerate(self.nodes) if node.alive]

    def crash_replica(self, index):
        self.nodes[index].crash()

    def reboot_replica(self, index):
        if not self.nodes[index].alive:
            self.nodes[index].reboot()

    def target_label(self, index):
        return self.nodes[index].name


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
    sim, cluster = make()
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(1.0, "crash", 0), FaultEvent(2.0, "crash", 1),
        FaultEvent(3.0, "reboot", 1))))
    injector.arm()
    sim.run(until=5.0)
    assert injector.faults_injected == 2
    assert injector.interventions == 1
    assert injector.first_outage == 1.0


def test_injector_crashes_fixed_target_at_time():
    sim, cluster = make()
    tracer = record_faults(sim)
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(5.0, "crash", 1),)))
    injector.arm()
    sim.run(until=4.9)
    assert cluster.nodes[1].alive
    sim.run(until=5.1)
    assert not cluster.nodes[1].alive
    assert injector.faults_injected == 1
    assert fault_records(tracer) == [(5.0, "fault.inject", "crash", "n1")]


def test_injector_random_target_picks_live_replica():
    sim, cluster = make()
    cluster.crash_replica(0)
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(1.0, "crash", None),)), rng=SeedTree(1).fork_random("f"))
    injector.arm()
    sim.run(until=2.0)
    assert injector.faults_injected == 1
    assert [node.alive for node in cluster.nodes].count(False) == 2


def test_injector_reboot_counts_as_intervention():
    sim, cluster = make()
    injector = FaultInjector(sim, cluster, Faultload("x", (
        FaultEvent(1.0, "crash", 2), FaultEvent(5.0, "reboot", 2))))
    injector.arm()
    # Arming disables the rebooted replica's watchdog: the reboot is
    # the operator's, not the watchdog's.
    assert cluster.watchdog_disabled == [2]
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
    watchdog = Watchdog(sim, node)
    watchdog.start()
    sim.call_after(3.0, node.crash)
    sim.run(until=10.0)
    assert node.alive
    assert len(watchdog.restarts) == 1
    # detection (within one poll) + the restart delay
    assert 3.0 < watchdog.restarts[0] <= (3.0 + POLL_INTERVAL_S
                                          + RESTART_DELAY_S)
    assert booted


def test_watchdog_durations_are_compressed_by_time_div():
    sim, cluster = make(1)
    watchdog = Watchdog(sim, cluster.nodes[0], time_div=4.0)
    assert watchdog.poll_interval_s == POLL_INTERVAL_S / 4.0
    assert watchdog.next_delay_s() == RESTART_DELAY_S / 4.0
    assert watchdog.stable_after_s == STABLE_AFTER_S / 4.0


def test_watchdog_disabled_does_nothing():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.holds = 1
    watchdog.start()
    sim.call_after(1.0, node.crash)
    sim.run(until=20.0)
    assert not node.alive
    assert watchdog.restarts == []


def test_watchdog_restarts_only_once_every_hold_is_released():
    """Two faults hold the watchdog; releasing one leaves the node
    down, releasing the other lets the watchdog revive it."""
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    watchdog.holds = 2
    sim.call_after(1.0, node.crash)
    sim.run(until=5.0)
    watchdog.holds -= 1
    sim.run(until=20.0)
    assert not node.alive
    watchdog.holds -= 1
    sim.run(until=30.0)
    assert node.alive
    assert len(watchdog.restarts) == 1


def test_watchdog_handles_repeated_crashes():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    sim.call_after(1.0, node.crash)
    sim.call_after(10.0, node.crash)
    sim.run(until=20.0)
    assert node.alive
    assert len(watchdog.restarts) == 2


def test_watchdog_disable_mid_flight_prevents_restart():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    crash_at = 1.1   # between polls: detected at 1.5, restart due at 2.5
    sim.call_after(crash_at, node.crash)
    sim.call_after(2.0, lambda: setattr(watchdog, "holds", 1))
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


#: longer than any run of MAX_RESTARTS backed-off restarts
LOOP_S = 300.0


def test_backoff_grows_exponentially_and_caps():
    sim, cluster = make(1)
    watchdog = Watchdog(sim, cluster.nodes[0])
    delays = []
    for streak in range(MAX_RESTARTS):
        watchdog.consecutive_restarts = streak
        delays.append(watchdog.next_delay_s())
    assert delays[:3] == [RESTART_DELAY_S, RESTART_DELAY_S * BACKOFF_FACTOR,
                          RESTART_DELAY_S * BACKOFF_FACTOR ** 2]
    assert delays == sorted(delays)
    assert delays[-1] == MAX_RESTART_DELAY_S  # capped
    assert sum(delays) < LOOP_S


def test_crash_loop_trips_the_breaker():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    crash_loop(sim, node, until=LOOP_S)
    sim.call_after(1.0, node.crash)
    sim.run(until=LOOP_S)
    assert watchdog.tripped
    assert len(watchdog.restarts) == MAX_RESTARTS  # then it gave up
    assert not node.alive                          # ...and left it down


def test_stable_stretch_resets_the_streak():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    # Isolated crashes, each followed by a long stable stretch: more
    # crashes than MAX_RESTARTS, but never a *consecutive* streak.
    spacing = STABLE_AFTER_S + 5.0
    crashes = MAX_RESTARTS + 2
    for k in range(crashes):
        sim.call_after(1.0 + k * spacing, node.crash)
    sim.run(until=crashes * spacing + 5.0)
    assert not watchdog.tripped
    assert len(watchdog.restarts) == crashes
    assert node.alive


def test_isolated_crashes_always_see_the_base_delay():
    # Restart timing parity with the pre-backoff watchdog: crashes spaced
    # beyond STABLE_AFTER_S never pay more than RESTART_DELAY_S.
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    sim.call_after(5.0, node.crash)
    sim.call_after(30.0, node.crash)
    sim.run(until=60.0)
    assert len(watchdog.restarts) == 2
    for crash_at, restarted_at in zip((5.0, 30.0), watchdog.restarts):
        # detection (<= poll) + base restart delay, never a backoff
        assert (restarted_at - crash_at
                <= POLL_INTERVAL_S + RESTART_DELAY_S + 1e-9)


def test_tripped_breaker_still_allows_manual_reboot():
    sim, cluster = make(1)
    node = cluster.nodes[0]
    watchdog = Watchdog(sim, node)
    watchdog.start()
    crash_loop(sim, node, until=LOOP_S)
    sim.call_after(1.0, node.crash)
    sim.run(until=LOOP_S + 10.0)
    assert watchdog.tripped and not node.alive
    node.reboot()   # the operator steps in
    sim.run(until=LOOP_S + 40.0)
    assert node.alive  # the tripped watchdog leaves it alone


# ----------------------------------------------------------------------
# faultload DSL
# ----------------------------------------------------------------------
def test_parse_full_spec():
    faultload = Faultload.parse("crash@240:*, crash@270:1, reboot@390:2")
    assert len(faultload.events) == 3
    assert faultload.events[0] == FaultEvent(240.0, "crash", None)
    assert faultload.events[1] == FaultEvent(270.0, "crash", 1)
    assert faultload.events[2] == FaultEvent(390.0, "reboot", 2)


def test_parse_target_defaults_to_random():
    faultload = Faultload.parse("crash@100")
    assert faultload.events[0].replica is None


def test_parse_partition_and_heal():
    """A partition is one window; there is no separate heal kind."""
    (event,) = Faultload.parse("partition@60-120:3").events
    assert event == FaultEvent(60.0, "partition", 3, until=120.0)
    assert Faultload.parse("partition@60:3").events[0].until is None
    with pytest.raises(ValueError, match="unknown fault kind 'heal'"):
        Faultload.parse("heal@300:1")


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
