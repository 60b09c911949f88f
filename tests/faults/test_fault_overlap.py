"""Overlapping faults compose: a fault is a hold only its own heal releases.

Each windowed kind is injected twice on one target, the windows
overlapping: ``[240, 300)`` and ``[260, 330)`` paper-seconds.  The
resource the kind faults -- a network pair, a nemesis window, a disk, a
DC's watchdogs, a WAN link, the replica CPUs -- must still be faulted
between the first heal (300) and the second (330), and healthy after the
second.  Two compositions across kinds follow: a replica restarted
inside a retry storm boots at the storm's speed, and the end of a DC
outage does not revive a replica whose reboot is manual.
"""

import pytest

from repro.faults.faultload import FaultInjector, Faultload
from repro.geo import GeoConfig, Topology
from repro.harness.cluster import RobustStoreCluster

from tests.harness.helpers import tiny_config

#: paper-seconds at which each probe looks: both windows open, only the
#: second open, neither open
BOTH, SECOND, NEITHER = 280.0, 315.0, 345.0


def _deploy(spec: str, geo: bool = False) -> RobustStoreCluster:
    config = tiny_config(replicas=3, offered_wips=200.0, geo=GeoConfig(
        topology=Topology(("dc0", "dc1", "dc2"))) if geo else None)
    cluster = RobustStoreCluster(config)
    FaultInjector(cluster.sim, cluster,
                  Faultload.parse(spec).scaled(config.scale)).arm()
    return cluster


def _run_to(cluster: RobustStoreCluster, paper_s: float) -> None:
    cluster.sim.run(until=cluster.config.scale.t(paper_s))


def _cut(src: str, dst: str):
    return lambda cluster: (src, dst) in cluster.network._blocked


def _message(param: str):
    return lambda cluster: any(
        getattr(window.params, param) > 0.0
        and window.pairs == {("replica0", "replica1")}
        for window in cluster.network.nemesis.windows)


def _storage(kind: str):
    return lambda cluster: any(
        window.kind == kind and window.disk == "replica1-disk"
        for window in cluster.storage_nemesis.windows)


def _slow_disk(cluster):
    return cluster.storage_nemesis.slow_factor("replica1-disk") > 1.0


def _dc1_down(cluster):
    return not cluster.replica_nodes[1].alive


def _wan_slow(cluster):
    return cluster.geo_state.model.degrade_factor("dc0", "dc1") > 1.0


def _cpus_slow(cluster):
    base = 1.0 / cluster.config.scale.load_div
    return all(node.cpu.speed < base for node in cluster.replica_nodes)


#: kind -> (one window's spec, ``[at-until)`` left to fill, whether the
#: run needs a geo topology, probe: is the resource faulted now?)
OVERLAPS = {
    "partition": ("partition@{w}:1", False, _cut("replica1", "replica0")),
    "oneway": ("oneway@{w}:0>1", False, _cut("replica0", "replica1")),
    "drop": ("drop@{w}:0>1:p=0.5", False, _message("drop_p")),
    "dup": ("dup@{w}:0>1:p=0.5", False, _message("duplicate_p")),
    "delay": ("delay@{w}:0>1:p=0.5", False, _message("delay_p")),
    "torn": ("torn@{w}:1", False, _storage("torn")),
    "fsynclie": ("fsynclie@{w}:1", False, _storage("fsynclie")),
    "failslow": ("failslow@{w}:1:m=4", False, _slow_disk),
    "dcfail": ("dcfail@{w}:dc1", True, _dc1_down),
    "wanpart": ("wanpart@{w}:dc0|dc1", True, _cut("replica0", "replica1")),
    "wandegrade": ("wandegrade@{w}:dc0>dc1,x5", True, _wan_slow),
    "retrystorm": ("retrystorm@{w}:factor=8", False, _cpus_slow),
}


@pytest.mark.parametrize("kind", sorted(OVERLAPS))
def test_overlapping_windows_hold_until_the_last_heal(kind):
    template, geo, faulted = OVERLAPS[kind]
    cluster = _deploy(",".join(template.format(w=window)
                               for window in ("240-300", "260-330")), geo)
    seen = []
    for paper_s in (BOTH, SECOND, NEITHER):
        _run_to(cluster, paper_s)
        seen.append(faulted(cluster))
    assert seen == [True, True, False]


def test_replica_restarted_inside_a_storm_boots_slowed():
    """The slowdown is held by the group, not by the CPU a crash throws
    away: the restarted replica runs at its peers' storm speed, and all
    return to full speed together when the storm heals."""
    cluster = _deploy("retrystorm@240-400:factor=8,crash@260:1")
    _run_to(cluster, 300.0)
    replica = cluster.replica_nodes[1]
    assert replica.alive and replica.incarnation == 1
    base = 1.0 / cluster.config.scale.load_div
    assert [node.cpu.speed for node in cluster.replica_nodes] == [base / 8] * 3
    _run_to(cluster, 410.0)
    assert [node.cpu.speed for node in cluster.replica_nodes] == [base] * 3


def test_dc_outage_heal_leaves_a_manual_reboot_manual():
    """The reboot's hold on replica 1's watchdog outlives the outage's:
    power returning at 300 revives nothing, the operator's reboot at 390
    does, and the watchdog never restarted the replica."""
    cluster = _deploy("dcfail@240-300:dc1,reboot@390:1", geo=True)
    replica, watchdog = cluster.replica_nodes[1], cluster.watchdogs[1]
    _run_to(cluster, 380.0)
    assert not replica.alive
    assert watchdog.holds == 1
    _run_to(cluster, 400.0)
    assert replica.alive
    assert watchdog.restarts == []
