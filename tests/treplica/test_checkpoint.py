"""Checkpoint manager details: cadence, truncation, shadow updates."""

import pytest

from repro.sim.disk import CorruptObject
from repro.treplica import TreplicaConfig
from repro.treplica.checkpoint import CHECKPOINT_SLOTS, CheckpointManager

from tests.treplica.helpers import TreplicaCluster


def test_checkpoint_record_contents():
    cluster = TreplicaCluster(3, nominal_size_mb=5.0)
    cluster.run(2.0)
    cluster.put_blocking(0, "x", 1)
    cluster.run(3.0)
    record = CheckpointManager.stored_record(cluster.nodes[0].disk)
    assert record is not None
    assert record.size_mb == 5.0
    assert record.taken_at <= cluster.sim.now
    assert record.instance >= -1


def test_no_new_checkpoint_without_progress():
    config = TreplicaConfig(checkpoint_interval_s=2.0)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(3.0)
    first = CheckpointManager.stored_record(cluster.nodes[0].disk)
    cluster.run(6.0)  # several intervals, zero actions executed
    second = CheckpointManager.stored_record(cluster.nodes[0].disk)
    assert second.instance == first.instance


def test_checkpoint_truncates_engine_log():
    config = TreplicaConfig(checkpoint_interval_s=2.0, log_retain_instances=1)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(2.0)
    for k in range(20):
        cluster.put(0, f"k{k}", k)
        cluster.run(0.3)  # spread over several consensus instances
    cluster.run(8.0)
    engine = cluster.runtimes[0].engine
    assert engine.log_start > 0
    # Retention: exactly one instance kept below the checkpoint.
    assert engine.log_start == cluster.runtimes[0].checkpoints.last_instance


def test_checkpoint_counts_and_cadence():
    config = TreplicaConfig(checkpoint_interval_s=2.0)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(1.0)
    for k in range(3):
        cluster.put_blocking(0, f"a{k}", k)
        cluster.run(2.5)
    manager = cluster.runtimes[0].checkpoints
    assert manager.stats["checkpoints"] >= 2


# ----------------------------------------------------------------------
# shadow-update discipline: commit record last, alternating slots
# ----------------------------------------------------------------------
def test_crash_mid_checkpoint_keeps_previous_record():
    """The module docstring's claim, demonstrated: a crash between the
    chunked bulk writes and the final commit record leaves the previous
    checkpoint intact, and recovery uses it."""
    config = TreplicaConfig(checkpoint_interval_s=2.0)
    cluster = TreplicaCluster(3, nominal_size_mb=40.0, config=config)
    cluster.run(1.0)
    cluster.put_blocking(0, "early", 1)
    cluster.run(4.0)  # one full checkpoint lands
    disk = cluster.nodes[2].disk
    before = CheckpointManager.stored_record(disk)
    assert before is not None

    for k in range(5):
        cluster.put_blocking(0, f"later{k}", k)
    # Start a fresh checkpoint by hand and crash mid-bulk-write: 40 MB in
    # 8 MB chunks takes over a second, the commit record only lands at
    # the end.
    runtime = cluster.runtimes[2]
    assert runtime.applied_up_to > before.instance
    cluster.nodes[2].spawn(runtime.checkpoints.take(), name="ckpt-by-hand")
    cluster.run(0.5)
    cluster.crash(2)

    after = CheckpointManager.stored_record(disk)
    assert after is not None
    assert after.instance == before.instance  # the older record survived
    cluster.reboot(2)
    cluster.run(5.0)
    cluster.put_blocking(0, "fresh", 9)
    cluster.run(2.0)
    cluster.assert_converged()


def test_commit_records_alternate_between_slots():
    config = TreplicaConfig(checkpoint_interval_s=1.0)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(1.5)
    for k in range(3):
        cluster.put_blocking(0, f"k{k}", k)
        cluster.run(1.5)
    disk = cluster.nodes[0].disk
    records = [disk.peek(slot) for slot in CHECKPOINT_SLOTS
               if disk.contains(slot)]
    assert len(records) == 2, "both shadow slots must be in use"
    assert records[0].instance != records[1].instance
    newest = CheckpointManager.stored_record(disk)
    assert newest.instance == max(r.instance for r in records)


def test_scrub_slots_drops_corrupt_payloads_only():
    cluster = TreplicaCluster(3, config=TreplicaConfig(
        checkpoint_interval_s=1.0))
    cluster.run(1.5)
    cluster.put_blocking(0, "x", 1)
    cluster.run(1.5)
    disk = cluster.nodes[0].disk
    good = CheckpointManager.stored_record(disk)
    assert good is not None
    # Damage one slot in place, the way StorageNemesis does.
    victim = next(slot for slot in CHECKPOINT_SLOTS if disk.contains(slot))
    _value, size = disk._store[victim]
    disk._store[victim] = (CorruptObject(victim), size)
    dropped = CheckpointManager.scrub_slots(disk)
    assert dropped == 1
    assert not disk.contains(victim)
    assert CheckpointManager.scrub_slots(disk) == 0  # idempotent


def test_wal_entries_survive_for_unreplayed_suffix_only():
    """After a checkpoint truncation the WAL holds only recent votes."""
    config = TreplicaConfig(checkpoint_interval_s=2.0, log_retain_instances=1)
    cluster = TreplicaCluster(3, config=config)
    cluster.run(2.0)
    for k in range(30):
        cluster.put(0, f"k{k}", k)
    cluster.run(10.0)
    wal = cluster.runtimes[0].engine.wal
    vote_instances = [entry[1] for entry in wal.entries()
                      if entry[0] == "vote"]
    engine = cluster.runtimes[0].engine
    assert vote_instances, "some recent votes must remain"
    assert min(vote_instances) >= engine.log_start
