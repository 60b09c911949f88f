"""StorageNemesis unit tests: windows, torn writes, fsync lies, fail-slow,
latent corruption, CRC framing, and the zero-cost-when-inert guarantee."""

import pytest

from repro.sim import (
    CorruptObject,
    Disk,
    DiskParams,
    LogFrame,
    SeedTree,
    Simulator,
    StorageFault,
    StorageNemesis,
    WriteAheadLog,
)
from repro.sim.disk import frame_crc


def make(seed=0, **disk_kwargs):
    sim = Simulator()
    params = DiskParams(**disk_kwargs) if disk_kwargs else DiskParams(
        sync_write_latency_s=0.01, write_bandwidth_mb_s=10.0,
        read_latency_s=0.01, read_bandwidth_mb_s=10.0)
    disk = Disk(sim, params, name="d0")
    nemesis = StorageNemesis(sim, seed=SeedTree(seed))
    nemesis.attach(disk)
    return sim, disk, nemesis


# ----------------------------------------------------------------------
# StorageFault validation and window semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kwargs", [
    dict(kind="corrupt", disk="d0"),     # point kind, not a window
    dict(kind="bogus", disk="d0"),
    dict(kind="torn", disk="d0", p=float("nan")),
    dict(kind="torn", disk="d0", p=-0.5),
    dict(kind="torn", disk="d0", p=float("inf")),
    dict(kind="failslow", disk="d0", factor=float("nan")),
    dict(kind="failslow", disk="d0", factor=-4.0),
    dict(kind="torn", disk="d0", p=0.0),
    dict(kind="torn", disk="d0", p=1.5),
    dict(kind="failslow", disk="d0", factor=0.5),
])
def test_storage_fault_rejects_malformed_windows(kwargs):
    with pytest.raises(ValueError):
        StorageFault(**kwargs)


def window_between(sim, nemesis, start, end, **fault):
    """Hold one ``d0`` window over ``[start, end)``, the way the fault
    injector does: added at its start, removed at its heal."""
    window = StorageFault(disk="d0", **fault)
    sim.call_at(start, nemesis.add_window, window)
    sim.call_at(end, nemesis.remove_window, window)
    return window


# ----------------------------------------------------------------------
# fail-slow
# ----------------------------------------------------------------------
def test_failslow_multiplies_op_cost_inside_the_window_only():
    sim, disk, nemesis = make()
    window_between(sim, nemesis, 10.0, 20.0, kind="failslow", factor=4.0)
    done = []

    def writer():
        yield disk.write(1.0)              # healthy: 0.11
        done.append(sim.now)
        yield sim.timeout(10.0 - sim.now)  # into the window
        yield disk.write(1.0)              # degraded: 4 x 0.11
        done.append(sim.now)
        yield sim.timeout(20.0 - sim.now)  # past the window
        yield disk.write(1.0)              # healthy again
        done.append(sim.now)

    sim.spawn(writer())
    sim.run()
    assert done[0] == pytest.approx(0.11)
    assert done[1] == pytest.approx(10.0 + 0.44)
    assert done[2] == pytest.approx(20.0 + 0.11)
    assert nemesis.counters["slow_ops"] == 1


def test_overlapping_failslow_windows_compound():
    sim, disk, nemesis = make()
    for factor in (2.0, 3.0):
        nemesis.add_window(StorageFault(kind="failslow", disk="d0",
                                        factor=factor))
    assert nemesis.slow_factor("d0") == 6.0
    assert nemesis.slow_factor("other-disk") == 1.0
    nemesis.remove_window(StorageFault(kind="failslow", disk="d0",
                                       factor=2.0))
    assert nemesis.slow_factor("d0") == 3.0


# ----------------------------------------------------------------------
# fsync lies
# ----------------------------------------------------------------------
def test_fsynclie_crash_revokes_acked_object_write():
    sim, disk, nemesis = make()
    nemesis.add_window(StorageFault(kind="fsynclie", disk="d0"))
    acked = []
    disk.write_object("ckpt", "v1", size_mb=0.1).add_callback(
        lambda e: acked.append(sim.now))
    sim.run(until=1.0)
    assert acked and disk.peek("ckpt") == "v1"  # completion was reported
    disk.on_crash()
    assert not disk.contains("ckpt")            # ...but the cache lied
    assert disk.unsafe_shutdowns == 1
    assert disk.lost_write_count == 1
    assert disk.dirty
    assert nemesis.counters["lied_writes"] == 1
    assert nemesis.counters["revoked_writes"] == 1


def test_fsynclie_revocation_restores_the_overwritten_value():
    sim, disk, nemesis = make()
    disk.write_object("ckpt", "old", size_mb=0.1)
    sim.run(until=1.0)  # durable before the lying window opens
    nemesis.add_window(StorageFault(kind="fsynclie", disk="d0"))
    disk.write_object("ckpt", "new", size_mb=0.1)
    sim.run(until=2.0)
    assert disk.peek("ckpt") == "new"
    disk.on_crash()
    assert disk.peek("ckpt") == "old"  # what a real fsync left behind


def test_fsynclie_window_close_flushes_the_cache():
    sim, disk, nemesis = make()
    window_between(sim, nemesis, 0.0, 5.0, kind="fsynclie")
    disk.write_object("ckpt", "v1", size_mb=0.1)
    sim.run(until=10.0)  # the window closed; the drive flushed for real
    disk.on_crash()
    assert disk.peek("ckpt") == "v1"
    assert disk.unsafe_shutdowns == 0
    assert not disk.dirty


def test_overlapping_fsynclie_windows_flush_only_at_the_later_heal():
    sim, disk, nemesis = make()
    window_between(sim, nemesis, 0.0, 5.0, kind="fsynclie")
    window_between(sim, nemesis, 1.0, 8.0, kind="fsynclie")
    disk.write_object("ckpt", "v1", size_mb=0.1)
    sim.run(until=6.0)  # the first window healed, the second still lies
    assert len(nemesis.windows) == 1
    disk.on_crash()
    assert not disk.contains("ckpt")
    assert nemesis.counters["revoked_writes"] == 1

    sim, disk, nemesis = make()
    window_between(sim, nemesis, 0.0, 5.0, kind="fsynclie")
    window_between(sim, nemesis, 1.0, 8.0, kind="fsynclie")
    disk.write_object("ckpt", "v1", size_mb=0.1)
    sim.run(until=9.0)  # both healed: the later heal flushed the cache
    assert nemesis.windows == []
    disk.on_crash()
    assert disk.peek("ckpt") == "v1"
    assert nemesis.counters["revoked_writes"] == 0


# ----------------------------------------------------------------------
# torn writes (CRC-framed WAL)
# ----------------------------------------------------------------------
def torn_wal_crash(seed=3):
    """Crash a WAL mid-group-commit inside a torn window; return pieces."""
    sim, disk, nemesis = make(seed=seed, sync_write_latency_s=1.0,
                              write_bandwidth_mb_s=1000.0)
    nemesis.add_window(StorageFault(kind="torn", disk="d0"))
    wal = WriteAheadLog(sim, disk)
    wal.append("e0", 0.0)             # first flush, commits at t=1.0
    for k in range(1, 5):
        wal.append(f"e{k}", 0.0)      # coalesce into the second flush
    sim.run(until=1.5)                # second flush in flight
    disk.on_crash()
    wal.on_crash()
    return sim, disk, nemesis, wal


def test_torn_crash_keeps_group_prefix_plus_one_bad_frame():
    _sim, disk, nemesis, wal = torn_wal_crash()
    frames = disk.peek("wal:wal")
    assert nemesis.counters["torn_writes"] == 1
    # e0 was already durable; the torn group contributed kept intact
    # frames and exactly one frame whose CRC cannot verify.
    bad = [f for f in frames if not f.intact()]
    assert len(bad) == 1
    assert frames[-1] is bad[0]        # the tear is always the last frame
    assert frames[0].entry == "e0" and frames[0].intact()


def test_scrub_truncates_at_the_first_damaged_frame():
    _sim, _disk, _nemesis, wal = torn_wal_crash()
    before = len(wal.entries())
    intact, dropped = wal.scrub()
    assert dropped == 1
    assert intact == before - 1
    assert all(f.intact() for f in _disk.peek("wal:wal"))
    assert wal.scrub() == (intact, 0)  # idempotent


def test_torn_fate_respects_probability_zero_windows():
    sim, disk, nemesis = make()
    # p is (0, 1]; use a tiny p and a seed whose first draw is above it.
    nemesis.add_window(StorageFault(kind="torn", disk="d0", p=1e-12))
    assert nemesis.torn_fate("d0") is False
    assert nemesis.counters["torn_writes"] == 0


def test_torn_object_write_leaves_unreadable_payload():
    sim, disk, nemesis = make()
    nemesis.add_window(StorageFault(kind="torn", disk="d0"))
    disk.write_object("ckpt", "data", size_mb=10.0)  # in flight for >1s
    sim.run(until=0.5)
    disk.on_crash()
    assert isinstance(disk.peek("ckpt"), CorruptObject)


# ----------------------------------------------------------------------
# latent corruption
# ----------------------------------------------------------------------
def test_scheduled_corruption_damages_a_frame_found_by_scrub():
    sim, disk, nemesis = make(seed=1)
    wal = WriteAheadLog(sim, disk)
    for k in range(6):
        wal.append(f"e{k}", 0.0)
    sim.run()
    assert wal.scrub() == (6, 0)
    sim.call_at(5.0, nemesis.corrupt, "d0")
    sim.run(until=6.0)
    assert nemesis.counters["corrupted_frames"] == 1
    frames = disk.peek("wal:wal")
    assert sum(1 for f in frames if not f.intact()) == 1
    intact, dropped = wal.scrub()
    assert dropped >= 1 and intact + dropped == 6


def test_corruption_on_an_empty_disk_is_a_no_op():
    sim, _disk, nemesis = make()
    nemesis.corrupt("d0")
    assert nemesis.counters["corrupted_frames"] == 0
    assert nemesis.counters["corrupted_objects"] == 0


# ----------------------------------------------------------------------
# framing invariants and determinism
# ----------------------------------------------------------------------
def test_log_frames_verify_and_detect_bit_flips():
    frame = LogFrame(7, ("vote", 3), frame_crc(7, ("vote", 3)))
    assert frame.intact()
    flipped = LogFrame(frame.seq, frame.entry, frame.crc ^ 1)
    assert not flipped.intact()
    reseq = LogFrame(frame.seq + 1, frame.entry, frame.crc)
    assert not reseq.intact()  # a frame is bound to its position


def test_an_intact_append_stores_no_checksum_yet_passes_scrub():
    sim, disk, _nemesis = make()
    wal = WriteAheadLog(sim, disk)
    for k in range(4):
        wal.append(("vote", k), 0.0)
    sim.run()
    frames = disk.peek("wal:wal")
    assert [f.seq for f in frames] == [0, 1, 2, 3]
    assert all(f._crc is None for f in frames)  # nothing computed on write
    assert all(f.crc == frame_crc(f.seq, f.entry) for f in frames)
    assert wal.scrub() == (4, 0)


def test_torn_and_corrupted_frames_store_a_flipped_checksum_and_fail():
    _sim, disk, _nemesis, _wal = torn_wal_crash()
    torn = disk.peek("wal:wal")[-1]
    assert torn._crc == frame_crc(torn.seq, torn.entry) ^ 0xFFFFFFFF
    assert not torn.intact()

    sim, disk, nemesis = make(seed=1)
    wal = WriteAheadLog(sim, disk)
    for k in range(6):
        wal.append(f"e{k}", 0.0)
    sim.run()
    nemesis.corrupt("d0")
    damaged = [f for f in disk.peek("wal:wal") if f._crc is not None]
    assert len(damaged) == 1
    frame = damaged[0]
    assert frame.crc == frame_crc(frame.seq, frame.entry) ^ 0xFFFFFFFF
    assert not frame.intact()
    assert wal.scrub()[1] >= 1


def test_fsynclie_crash_revokes_exactly_the_lied_frames():
    sim, disk, nemesis = make()
    wal = WriteAheadLog(sim, disk)
    for k in range(3):
        wal.append("same", 0.0)  # equal entries: only identity tells apart
    sim.run(until=1.0)
    kept = list(disk.peek("wal:wal"))
    nemesis.add_window(StorageFault(kind="fsynclie", disk="d0"))
    for k in range(3):
        wal.append("same", 0.0)
    sim.run(until=2.0)
    frames = disk.peek("wal:wal")
    assert len(frames) == 6
    wal.truncate_below(lambda entry: True)  # a no-op truncation pass
    disk.on_crash()
    assert nemesis.counters["revoked_writes"] >= 1
    assert len(frames) == 3
    assert all(a is b for a, b in zip(frames, kept))


def test_revoking_frames_a_truncation_already_removed_is_harmless():
    sim, disk, nemesis = make()
    nemesis.add_window(StorageFault(kind="fsynclie", disk="d0"))
    wal = WriteAheadLog(sim, disk)
    wal.append("old", 0.0)
    sim.run(until=1.0)
    wal.append("new", 0.0)
    sim.run(until=2.0)
    wal.truncate_below(lambda entry: entry != "old")
    disk.on_crash()
    assert wal.entries() == []
    assert nemesis.counters["revoked_writes"] == 2


def test_same_seed_injects_identically():
    runs = []
    for _attempt in range(2):
        _sim, _disk, nemesis, wal = torn_wal_crash(seed=9)
        runs.append((dict(nemesis.counters), wal.entries()))
    assert runs[0] == runs[1]


def test_attached_but_windowless_nemesis_changes_nothing():
    """Zero-cost discipline at the disk layer: an armed nemesis with no
    matching window must leave timing, contents, and counters untouched."""
    def exercise(with_nemesis):
        sim = Simulator()
        disk = Disk(sim, DiskParams(sync_write_latency_s=0.01,
                                    write_bandwidth_mb_s=10.0), name="d0")
        nemesis = None
        if with_nemesis:
            nemesis = StorageNemesis(sim, seed=SeedTree(5))
            nemesis.attach(disk)
            nemesis.add_window(StorageFault(kind="failslow", disk="other",
                                            factor=8.0))
        wal = WriteAheadLog(sim, disk)
        times = []
        for k in range(4):
            wal.append(f"e{k}", 0.001).add_callback(
                lambda e: times.append(sim.now))
        disk.write_object("ckpt", "v", size_mb=2.0)
        sim.run(until=0.3)
        disk.on_crash()
        wal.on_crash()
        sim.run()
        return times, wal.entries(), disk.peek("ckpt"), disk.bytes_written_mb

    assert exercise(False) == exercise(True)
