"""Log-structured checkpoints: a record is a base snapshot plus the
journal of actions applied on top of it.

The application is encoded once per base, not once per checkpoint; both
restore paths (local load, remote transfer) rebuild the state by
restoring the base and replaying the journal.  A RobustStore replica
boots the same way -- it restores the deployment's genesis snapshot with
an empty journal -- so the genesis snapshot is every replica's first base.
"""

import gc
import weakref

import pytest

from repro.harness.cluster import RobustStoreCluster
from repro.harness.experiment import Experiment
from repro.treplica import TreplicaConfig
from repro.treplica.checkpoint import CHECKPOINT_SLOTS, CheckpointManager

from tests.harness.helpers import tiny_config
from tests.tpcw.helpers import canonical
from tests.treplica.helpers import KVApp, TreplicaCluster

#: ``Put.size_mb`` (the Action default): what one journal entry weighs.
PUT_MB = 0.0004


def _feed(cluster, prefix, count, gap_s=0.3):
    for k in range(count):
        cluster.put(0, f"{prefix}{k}", k)
        cluster.run(gap_s)  # one consensus instance each


# ----------------------------------------------------------------------
# both restore sites go through base + journal replay
# ----------------------------------------------------------------------
def test_local_load_replays_the_journal_onto_the_base():
    cluster = TreplicaCluster(3, config=TreplicaConfig(
        checkpoint_interval_s=2.0))
    cluster.run(1.0)  # the boot checkpoint materialises each base
    _feed(cluster, "pre", 8)
    cluster.run(3.0)  # a periodic checkpoint covers the eight puts
    record = CheckpointManager.stored_record(cluster.nodes[2].disk)
    base, journal = record.snapshot
    assert len(journal) == 8, "the record must carry a journal to replay"
    assert cluster.runtimes[2].app.snapshot_calls == 1

    cluster.crash(2)
    cluster.reboot(2)
    cluster.run(10.0)
    rebooted, peer = cluster.runtimes[2], cluster.runtimes[0]
    assert rebooted.ready
    assert rebooted.applied_up_to == peer.applied_up_to
    assert rebooted.app.state == peer.app.state
    # Nothing was re-executed through the queue, and the load seeded
    # this incarnation's own base and journal from the record...
    assert rebooted.stats["executed"] == 0
    assert rebooted.journal_actions == 8
    # ...so its next checkpoint extends that journal without an encode.
    cluster.put_blocking(0, "post", 1)
    cluster.run(3.0)
    refreshed = CheckpointManager.stored_record(cluster.nodes[2].disk)
    assert refreshed.instance > record.instance
    assert refreshed.snapshot[0] is base
    assert len(refreshed.snapshot[1]) == 9
    assert rebooted.app.snapshot_calls == 0


def test_remote_transfer_install_replays_the_journal_onto_the_base():
    config = TreplicaConfig(checkpoint_interval_s=2.0, log_retain_instances=1)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(2.0)
    _feed(cluster, "pre", 5)
    cluster.run(3.0)
    cluster.crash(2)
    _feed(cluster, "during", 20)
    cluster.run(6.0)  # survivors checkpoint + truncate past the backlog
    served = CheckpointManager.stored_record(cluster.nodes[0].disk)
    assert len(served.snapshot[1]) > 0

    cluster.reboot(2)
    cluster.run(30.0)
    rebooted, peer = cluster.runtimes[2], cluster.runtimes[0]
    assert rebooted.ready and rebooted.stats["remote_transfers"] >= 1
    assert rebooted.applied_up_to == peer.applied_up_to
    assert rebooted.app.state == peer.app.state
    assert rebooted.app.snapshot_calls == 0  # inherited the peer's base


def _assert_same_state_at_the_same_instance(cluster, recovered, peer):
    for _ in range(1000):  # replicas apply an instance microseconds apart
        if recovered.applied_up_to == peer.applied_up_to:
            break
        cluster.sim.run(until=cluster.sim.now + 0.0005)
    assert recovered.applied_up_to == peer.applied_up_to
    assert canonical(recovered.app) == canonical(peer.app)


def test_tiny_bookstore_crash_run_rebuilds_the_peers_state():
    result = (Experiment.from_config(tiny_config())
              .one_crash(replica=1).keep_cluster().run())
    cluster = result.cluster
    assert result.recoveries and result.recoveries[0]["ready_at"] is not None
    _assert_same_state_at_the_same_instance(
        cluster, cluster.runtimes[1], cluster.runtimes[0])
    # Nobody encoded anything: the recovered incarnation and the
    # never-crashed ones all still journal on top of the genesis snapshot.
    for node in cluster.replica_nodes:
        record = CheckpointManager.stored_record(node.disk)
        assert record.snapshot[0] is cluster.genesis
        assert len(record.snapshot[1]) > 0


def test_tiny_bookstore_remote_install_rebuilds_the_peers_state():
    # Peers keep one instance below each checkpoint, so a replica that
    # stays down across a checkpoint interval must take a peer's record.
    cluster = RobustStoreCluster(tiny_config(
        replicas=3, treplica_overrides=(("log_retain_instances", 1),)))
    cluster.run_until(4.0)
    cluster.disable_watchdog(2)
    cluster.crash_replica(2)
    cluster.run_until(20.0)  # the survivors checkpoint and truncate
    cluster.reboot_replica(2)
    cluster.run_until(50.0)  # transfers repeat while the peers truncate
    rebooted = cluster.runtimes[2]
    assert rebooted.ready and rebooted.stats["remote_transfers"] >= 1
    _assert_same_state_at_the_same_instance(cluster, rebooted,
                                            cluster.runtimes[0])


def test_tiny_bookstore_recovery_from_a_rebased_record():
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    for runtime in cluster.runtimes:  # fold the journal every checkpoint
        runtime.app.size_multiplier *= 0.001
    cluster.run_until(14.0)
    record = CheckpointManager.stored_record(cluster.replica_nodes[1].disk)
    assert record.snapshot[0] is not cluster.genesis, "a rebase happened"
    cluster.crash_replica(1)
    cluster.run_until(30.0)  # the watchdog reboots it from that record
    rebooted = cluster.runtimes[1]
    assert rebooted.ready and rebooted.stats["remote_transfers"] == 0
    _assert_same_state_at_the_same_instance(cluster, rebooted,
                                            cluster.runtimes[0])


def test_a_crash_frees_the_incarnations_state_without_the_collector():
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    cluster.run_until(4.0)
    dead = cluster.runtimes[1]
    state = weakref.ref(dead.app.state)
    gc.disable()
    try:
        cluster.crash_replica(1)
        assert state() is None, "the crashed state must die with the crash"
    finally:
        gc.enable()
    with pytest.raises(RuntimeError):
        dead.read(lambda app: app.state)
    cluster.run_until(20.0)
    rebooted = cluster.runtimes[1]
    assert rebooted is not dead and rebooted.ready
    _assert_same_state_at_the_same_instance(cluster, rebooted,
                                            cluster.runtimes[0])


# ----------------------------------------------------------------------
# boot is a restore of the genesis checkpoint
# ----------------------------------------------------------------------
def test_every_replicas_first_record_shares_the_genesis_bytes():
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    for runtime in cluster.runtimes:
        base, journal = runtime.snapshot_state()
        assert base is cluster.genesis and journal == ()
    cluster.run_until(3.0)  # the boot checkpoints have landed
    for node, runtime in zip(cluster.replica_nodes, cluster.runtimes):
        assert runtime.checkpoints.checkpoints_taken == 1
        record = CheckpointManager.stored_record(node.disk)
        assert record.snapshot[0] is cluster.genesis


def test_replica_crashed_before_its_first_checkpoint_boots_from_genesis():
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    cluster.run_until(1.0)
    assert cluster.runtimes[2].applied_up_to >= 0, "it had applied updates"
    assert CheckpointManager.stored_record(
        cluster.replica_nodes[2].disk) is None
    cluster.crash_replica(2)
    cluster.run_until(15.0)  # the watchdog reboots it; nothing to load
    rebooted = cluster.runtimes[2]
    assert rebooted is not None and rebooted.ready
    assert rebooted.stats["remote_transfers"] == 0
    _assert_same_state_at_the_same_instance(cluster, rebooted,
                                            cluster.runtimes[0])


def test_bookstore_run_that_crosses_the_rebase_rule_encodes_once_per_rebase():
    cluster = RobustStoreCluster(tiny_config(replicas=3, observability=True))
    # Shrink the nominal state to about one and a half checkpoint
    # intervals of journal, so the real rule folds the journal at some
    # checkpoints and not at others.
    for runtime in cluster.runtimes:
        runtime.app.size_multiplier *= 0.007
    bases = [[cluster.genesis] for _ in cluster.runtimes]
    for step in range(1, 61):  # far finer than the 6 s checkpoint interval
        cluster.run_until(0.5 * step)
        for seen, runtime in zip(bases, cluster.runtimes):
            if runtime._base is not seen[-1]:
                seen.append(runtime._base)
    rebases = sum(len(seen) - 1 for seen in bases)
    counters = cluster.metrics.snapshot()["counters"]
    assert rebases >= 3, "every replica must have crossed the rule"
    assert counters["treplica.snapshot_encodes"] == rebases
    assert counters["treplica.checkpoints"] > rebases


# ----------------------------------------------------------------------
# the rebase rule and what it costs
# ----------------------------------------------------------------------
def test_record_written_before_a_rebase_still_loads_after_it():
    # A 5-put state: the sixth journalled put makes the journal as large
    # as the state, so the next checkpoint folds it into a new base.
    # Checkpoints by hand (the periodic loop is parked) so exactly two
    # records follow the boot one and the shadow slots hold both.
    cluster = TreplicaCluster(3, nominal_size_mb=5 * PUT_MB,
                              config=TreplicaConfig(checkpoint_interval_s=1e6))
    runtime, disk = cluster.runtimes[0], cluster.nodes[0].disk

    def checkpoint():
        cluster.nodes[0].spawn(runtime.checkpoints.take(), name="by-hand")
        cluster.run(0.5)

    cluster.run(1.0)
    _feed(cluster, "a", 3)
    checkpoint()
    old = CheckpointManager.stored_record(disk)
    old_state = {"data": dict(runtime.app.state["data"]),
                 "log": list(runtime.app.state["log"])}
    assert len(old.snapshot[1]) == 3

    _feed(cluster, "b", 4)
    checkpoint()
    new = CheckpointManager.stored_record(disk)
    assert new.snapshot[0] is not old.snapshot[0], "the journal was folded"
    assert new.snapshot[1] == ()
    assert runtime.app.snapshot_calls == 2

    # The other shadow slot still holds the old record with its own base.
    slots = [disk.peek(slot) for slot in CHECKPOINT_SLOTS]
    assert old in slots and new in slots
    scratch = TreplicaCluster(1).runtimes[0]
    scratch.restore_state(old.snapshot)
    assert scratch.app.state == old_state
    scratch.restore_state(new.snapshot)
    assert scratch.app.state == runtime.app.state


def test_records_share_the_delivery_log_and_reboot_seeds_the_older_prefix():
    # Two hand-driven checkpoints of replica 1 (the periodic loop is
    # parked), three puts and then four more: both records must view one
    # append-only delivery log instead of each copying the uids.
    cluster = TreplicaCluster(3, config=TreplicaConfig(
        checkpoint_interval_s=1e6))
    runtime, disk = cluster.runtimes[1], cluster.nodes[1].disk

    def checkpoint():
        cluster.nodes[1].spawn(runtime.checkpoints.take(), name="by-hand")
        cluster.run(0.5)
        return CheckpointManager.stored_record(disk)

    cluster.run(1.0)
    _feed(cluster, "a", 3)
    old = checkpoint()
    _feed(cluster, "b", 4)
    new = checkpoint()
    assert new.instance > old.instance
    assert old.delivered_uids.log is new.delivered_uids.log
    first_three = [f"r0.0:a{k}" for k in range(1, 4)]
    assert list(old.delivered_uids) == first_three
    assert list(new.delivered_uids) == first_three + [
        f"r0.0:a{k}" for k in range(4, 8)]

    # Lose the newer slot: the reboot loads the older record and its
    # engine knows exactly that record's uids, none of them as decided.
    cluster.crash(1)
    for slot in CHECKPOINT_SLOTS:
        if disk.peek(slot) is new:
            disk.delete(slot)
    assert CheckpointManager.stored_record(disk) is old
    cluster.reboot(1)
    engine = cluster.runtimes[1].engine
    assert engine.dedup_uids == 3
    assert list(engine.delivered_up_to(old.instance)) == first_three
    assert not any(engine._is_decided(uid) for uid in first_three)
    cluster.run(10.0)
    assert cluster.runtimes[1].ready
    cluster.assert_converged()


def test_one_encode_per_base_not_per_checkpoint():
    def encodes_and_checkpoints(nominal_size_mb):
        # Twelve hand-driven checkpoints (the periodic loop is parked),
        # two puts apart, after the boot checkpoint.
        cluster = TreplicaCluster(3, nominal_size_mb=nominal_size_mb,
                                  config=TreplicaConfig(
                                      checkpoint_interval_s=1e6))
        cluster.run(1.0)
        for round_ in range(12):
            _feed(cluster, f"r{round_}-", 2)
            for node, runtime in zip(cluster.nodes, cluster.runtimes):
                node.spawn(runtime.checkpoints.take(), name="by-hand")
            cluster.run(0.5)
        return [(rt.app.snapshot_calls, rt.checkpoints.checkpoints_taken)
                for rt in cluster.runtimes]

    # State far larger than 24 puts: the boot base serves every record.
    assert encodes_and_checkpoints(1.0) == [(1, 13)] * 3
    # State worth 5.5 puts: the journal reaches it at every third
    # checkpoint (6 puts), and each crossing costs exactly one encode.
    assert encodes_and_checkpoints(5.5 * PUT_MB) == [(1 + 4, 13)] * 3
