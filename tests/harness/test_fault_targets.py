"""One target grammar for every fault verb, on every shard count.

A target is a plain replica index (meaning shard 0) or a ``(shard,
index)`` pair.  Each row below applies one verb of
:class:`RobustStoreCluster` and reports the node name(s) it touched;
the table checks verb x target shape x {k=1, k=2}, and that every
out-of-range or negative target raises ``ValueError`` -- never an
``IndexError`` mid-run, never a silent negative-index hit.
"""

import pytest

from repro.faults.faultload import FaultEvent, Faultload
from repro.harness.cluster import RobustStoreCluster

from tests.harness.helpers import tiny_config, tiny_experiment

REPLICAS = 3


@pytest.fixture(scope="module")
def clusters():
    from repro.geo import GeoConfig, Topology
    geo = GeoConfig(topology=Topology(("dc0", "dc1", "dc2")))
    return {k: RobustStoreCluster(tiny_config(
        replicas=REPLICAS, offered_wips=200.0, shards=k, geo=geo))
        for k in (1, 2)}


def _split(target):
    return target if isinstance(target, tuple) else (None, target)


def _event(kind, src, dst=None, **fields):
    (shard, replica), (dst_shard, dst_replica) = _split(src), _split(dst)
    return FaultEvent(10.0, kind, replica, shard=shard, dst=dst_replica,
                      dst_shard=dst_shard, **fields)


def _peer(target):
    """Another replica of the same shard, in the same target shape."""
    if isinstance(target, tuple):
        return (target[0], (target[1] + 1) % REPLICAS)
    return (target + 1) % REPLICAS


def _crash(cluster, target):
    before = {node.name for node in cluster.replica_nodes if node.alive}
    cluster.crash_replica(target)
    after = {node.name for node in cluster.replica_nodes if node.alive}
    cluster.reboot_replica(target)
    return before - after


def _reboot(cluster, target):
    cluster.crash_replica(target)
    down = {node.name for node in cluster.replica_nodes if not node.alive}
    cluster.reboot_replica(target)
    return down - {node.name for node in cluster.replica_nodes
                   if not node.alive}


def _isolated(cluster):
    """Names blocked from every group peer (both directions)."""
    blocked = cluster.network._blocked
    return {src for src, _dst in blocked
            if sum(1 for a, _b in blocked if a == src) == REPLICAS - 1}


def _partition(cluster, target):
    cluster.partition_replica(target)
    isolated = _isolated(cluster)
    cluster.heal_replica(target)
    return isolated


def _heal(cluster, target):
    cluster.partition_replica(target)
    cluster.heal_replica(target)
    assert not cluster.network._blocked
    return _partition(cluster, target)


def _oneway(cluster, target):
    cluster.block_oneway(target, _peer(target))
    (pair,) = cluster.network._blocked
    cluster.unblock_oneway(target, _peer(target))
    assert not cluster.network._blocked
    return set(pair)


def _nemesis(cluster, target):
    cluster.apply_nemesis(_event("drop", target, _peer(target),
                                 until=20.0, p=0.5))
    (pair,) = cluster.network.nemesis.windows.pop().pairs
    return set(pair)


def _storage(cluster, target):
    cluster.apply_storage_fault(_event("torn", target, until=20.0))
    disk = cluster.storage_nemesis.windows.pop().disk
    return {node.name for node in cluster.replica_nodes
            if node.disk.name == disk}


def _watchdog(cluster, target):
    cluster.disable_watchdog(target)
    off = [dog for dog in cluster.watchdogs if not dog.enabled]
    for dog in off:
        dog.enabled = True
    return {dog.node.name for dog in off}


#: verb -> (probe, does it also touch the peer replica?)
VERBS = {
    "crash_replica": (_crash, False),
    "reboot_replica": (_reboot, False),
    "partition_replica": (_partition, False),
    "heal_replica": (_heal, False),
    "block_oneway/unblock_oneway": (_oneway, True),
    "apply_nemesis": (_nemesis, True),
    "apply_storage_fault": (_storage, False),
    "disable_watchdog": (_watchdog, False),
}

#: (shards, target) -> the node name it must resolve to
GOOD = [
    (1, 1, "replica1"),
    (1, (0, 2), "replica2"),
    (2, 1, "s0.replica1"),
    (2, (0, 0), "s0.replica0"),
    (2, (1, 2), "s1.replica2"),
]

#: (shards, target) -> ValueError
BAD = [(1, -1), (1, REPLICAS), (1, (0, -1)), (1, (1, 0)), (1, (-1, 0)),
       (2, -1), (2, REPLICAS), (2, (1, REPLICAS)), (2, (2, 0)), (2, (1, -1))]


def _name_of(shards, target):
    shard, index = target if isinstance(target, tuple) else (0, target)
    return f"s{shard}.replica{index}" if shards > 1 else f"replica{index}"


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("shards,target,name", GOOD)
def test_verb_resolves_target_to_node(clusters, verb, shards, target, name):
    probe, touches_peer = VERBS[verb]
    assert _name_of(shards, target) == name
    expected = {name}
    if touches_peer:
        expected.add(_name_of(shards, _peer(target)))
    assert probe(clusters[shards], target) == expected


@pytest.mark.parametrize("verb", sorted(VERBS))
@pytest.mark.parametrize("shards,target", BAD)
def test_verb_rejects_unresolvable_target(clusters, verb, shards, target):
    cluster = clusters[shards]
    if "oneway" in verb:
        # either end of the directed pair may be the bad one
        calls = [lambda: cluster.block_oneway(target, 0),
                 lambda: cluster.unblock_oneway(0, target)]
    elif verb.startswith("apply_"):
        calls = [lambda: VERBS[verb][0](cluster, target)]
    else:
        # the bare verb: a probe's set-up must not be what raises
        calls = [lambda: getattr(cluster, verb)(target)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert all(node.alive for node in cluster.replica_nodes)
    assert not cluster.network._blocked


@pytest.mark.parametrize("shards,expected", [
    (1, {"replica1"}), (2, {"s0.replica1", "s1.replica1"})])
def test_dc_verbs_hit_the_same_slot_of_every_group(clusters, shards, expected):
    cluster = clusters[shards]
    assert cluster.fail_dc("dc1") == len(expected)
    assert {node.name for node in cluster.replica_nodes
            if not node.alive} == expected
    assert {dog.node.name for dog in cluster.watchdogs
            if not dog.enabled} == expected
    cluster.restore_dc("dc1")
    assert all(dog.enabled for dog in cluster.watchdogs)
    for target in cluster._geo().replica_targets("dc1"):
        cluster.reboot_replica(target)
    with pytest.raises(ValueError):
        cluster.fail_dc("nowhere")


# ----------------------------------------------------------------------
# the grammar and the harness reject bad targets before the run starts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [
    "crash@240:-1", "reboot@240:-2", "oneway@30:0>-1", "torn@100-300:-1",
    "drop@10-60:-1>0:p=0.5", "crash@240:1.-1"])
def test_grammar_rejects_negative_indexes(spec):
    with pytest.raises(ValueError, match=">= 0"):
        Faultload.parse(spec)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("build", [
    lambda e: e.faults("crash@240:7"),
    lambda e: e.faults("oneway@30-90:0>3"),
    lambda e: e.nemesis("torn@100-300:3"),
    lambda e: e.one_crash(replica=REPLICAS),
], ids=["faults", "oneway-dst", "nemesis-spec", "preset"])
def test_out_of_range_replica_fails_before_the_run(shards, build, monkeypatch):
    from repro.harness import experiments

    def never(config):
        raise AssertionError("the deployment must not be built")

    monkeypatch.setattr(experiments, "RobustStoreCluster", never)
    experiment = build(tiny_experiment(replicas=REPLICAS).shards(shards))
    with pytest.raises(ValueError, match=r"replica [37].*0\.\.2"):
        experiment.run()


def test_bad_nemesis_spec_target_fails_at_construction():
    # Direct cluster users skip the harness check; the constructor
    # still refuses instead of raising mid-run.
    with pytest.raises(ValueError, match="no replica 5"):
        RobustStoreCluster(tiny_config(replicas=REPLICAS,
                                       nemesis_spec="oneway@30-90:0>5"))
