"""Tests for the queueing station, disk, and write-ahead log."""

import math

import pytest

from repro.sim import Disk, DiskParams, ServiceStation, SimulationError, Simulator, WriteAheadLog


# ----------------------------------------------------------------------
# ServiceStation
# ----------------------------------------------------------------------
def test_station_serves_fifo_with_queueing_delay():
    sim = Simulator()
    station = ServiceStation(sim)
    completions = []

    def job(tag, service):
        yield station.request(service)
        completions.append((tag, sim.now))

    sim.spawn(job("a", 2.0))
    sim.spawn(job("b", 1.0))
    sim.spawn(job("c", 0.5))
    sim.run()
    assert completions == [("a", 2.0), ("b", 3.0), ("c", 3.5)]


def test_station_idles_between_bursts():
    sim = Simulator()
    station = ServiceStation(sim)
    completions = []

    def burst(at, tag):
        yield sim.timeout(at)
        yield station.request(1.0)
        completions.append((tag, sim.now))

    sim.spawn(burst(0.0, "first"))
    sim.spawn(burst(10.0, "second"))
    sim.run()
    assert completions == [("first", 1.0), ("second", 11.0)]
    assert station.jobs_served == 2
    assert station.total_busy_time == pytest.approx(2.0)


def test_station_reset_drops_queue_and_inflight():
    sim = Simulator()
    station = ServiceStation(sim)
    completions = []

    def observer():
        done = station.request(5.0)
        event = yield done
        completions.append(event)

    sim.spawn(observer())
    sim.call_after(1.0, station.reset)
    sim.run(until=20.0)
    assert completions == []
    assert not station.busy


def test_station_usable_after_reset():
    sim = Simulator()
    station = ServiceStation(sim)
    station.request(5.0)
    sim.call_after(1.0, station.reset)
    sim.run(until=2.0)
    done_times = []

    def job():
        yield station.request(1.0)
        done_times.append(sim.now)

    sim.spawn(job())
    sim.run()
    assert done_times == [3.0]


def test_station_rejects_negative_service_time():
    sim = Simulator()
    station = ServiceStation(sim)
    with pytest.raises(SimulationError):
        station.request(-1.0)


@pytest.mark.parametrize("service_time", [-1.0, math.nan],
                         ids=["negative", "nan"])
def test_station_rejects_bad_service_time_at_the_call(service_time):
    # Queued behind a job in service, a bad job must fail at request(),
    # not later inside the earlier job's completion.
    sim = Simulator()
    station = ServiceStation(sim)
    station.request(1.0)
    with pytest.raises(SimulationError):
        station.request(service_time)
    sim.run()
    assert station.jobs_served == 1
    assert station.total_busy_time == 1.0
    assert not station.busy


@pytest.mark.parametrize("speed", [0.0, -1.0, math.nan],
                         ids=["zero", "negative", "nan"])
def test_station_rejects_bad_speed(speed):
    with pytest.raises(SimulationError):
        ServiceStation(Simulator(), speed=speed)


# ----------------------------------------------------------------------
# Disk
# ----------------------------------------------------------------------
def make_disk(sim, **kwargs):
    params = DiskParams(**kwargs) if kwargs else DiskParams(
        sync_write_latency_s=0.01, write_bandwidth_mb_s=10.0,
        read_latency_s=0.01, read_bandwidth_mb_s=10.0)
    return Disk(sim, params)


def test_disk_write_cost_is_latency_plus_transfer():
    sim = Simulator()
    disk = make_disk(sim)
    done_at = []

    def writer():
        yield disk.write(5.0)  # 0.01 + 5/10 = 0.51
        done_at.append(sim.now)

    sim.spawn(writer())
    sim.run()
    assert done_at == [pytest.approx(0.51)]


def test_disk_operations_serialize():
    sim = Simulator()
    disk = make_disk(sim)
    done = []

    def writer(tag):
        yield disk.write(1.0)  # each op costs 0.11
        done.append((tag, sim.now))

    sim.spawn(writer("a"))
    sim.spawn(writer("b"))
    sim.run()
    assert done[0][1] == pytest.approx(0.11)
    assert done[1][1] == pytest.approx(0.22)


def test_disk_object_durable_only_after_completion():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write_object("ckpt", {"x": 1}, size_mb=1.0)
    assert not disk.contains("ckpt")
    sim.run()
    assert disk.peek("ckpt") == {"x": 1}


def test_disk_crash_loses_inflight_write():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write_object("ckpt", "data", size_mb=10.0)  # needs 1.01s
    sim.call_after(0.5, disk.on_crash)
    sim.run(until=5.0)
    assert not disk.contains("ckpt")


def test_disk_contents_survive_crash():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write_object("kept", "v", size_mb=0.1)
    sim.run()
    disk.on_crash()
    assert disk.peek("kept") == "v"


# ----------------------------------------------------------------------
# byte accounting: completed transfers only
# ----------------------------------------------------------------------
def test_disk_books_bytes_at_completion_not_submission():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write(5.0)   # completes at 0.51
    disk.read(2.0)    # then 0.21 more
    sim.run(until=0.25)
    assert (disk.bytes_written_mb, disk.bytes_read_mb) == (0.0, 0.0)
    sim.run()
    assert disk.bytes_written_mb == pytest.approx(5.0)
    assert disk.bytes_read_mb == pytest.approx(2.0)


def test_byte_counters_sum_only_completed_ops_across_a_crash():
    sim = Simulator()
    disk = make_disk(sim)
    completed = []

    def writer(size):
        yield disk.write(size)
        completed.append(size)

    sim.spawn(writer(1.0))   # done at 0.11
    sim.spawn(writer(10.0))  # would finish at 1.12; crash drops it
    sim.call_after(0.5, disk.on_crash)
    sim.run(until=2.0)

    def late_writer():
        yield disk.write(3.0)
        completed.append(3.0)

    sim.spawn(late_writer())
    sim.run()
    # The crash-dropped 10 MB op never moved data to the platter: the
    # counter is exactly the sum of the completed ops' sizes.
    assert completed == [1.0, 3.0]
    assert disk.bytes_written_mb == pytest.approx(sum(completed))


def test_crash_dropped_reads_are_not_booked_either():
    sim = Simulator()
    disk = make_disk(sim)
    disk.write_object("blob", "x", size_mb=0.1)
    sim.run()
    booked = disk.bytes_read_mb
    disk.read(8.0)  # needs 0.81s
    sim.call_after(0.2, disk.on_crash)
    sim.run(until=5.0)
    assert disk.bytes_read_mb == booked


# ----------------------------------------------------------------------
# WriteAheadLog
# ----------------------------------------------------------------------
def test_wal_appends_become_durable_in_order():
    sim = Simulator()
    disk = make_disk(sim)
    wal = WriteAheadLog(sim, disk)
    wal.append("e1", 0.001)
    wal.append("e2", 0.001)
    sim.run()
    assert wal.entries() == ["e1", "e2"]


def test_wal_group_commit_coalesces_burst():
    sim = Simulator()
    disk = make_disk(sim)
    wal = WriteAheadLog(sim, disk)
    for i in range(10):
        wal.append(i, 0.0001)
    sim.run()
    # First append starts a flush; the other nine coalesce into one more.
    assert wal.flush_count == 2
    assert wal.entries() == list(range(10))


def test_wal_append_event_fires_when_durable():
    sim = Simulator()
    disk = make_disk(sim)
    wal = WriteAheadLog(sim, disk)
    times = []

    def writer():
        yield wal.append("x", 0.0)
        times.append(sim.now)

    sim.spawn(writer())
    sim.run()
    assert times and times[0] >= 0.01  # at least one sync write latency


def test_wal_crash_loses_unflushed_tail():
    sim = Simulator()
    disk = Disk(sim, DiskParams(sync_write_latency_s=1.0, write_bandwidth_mb_s=1000.0))
    wal = WriteAheadLog(sim, disk)
    wal.append("durable-candidate", 0.0)  # flush completes at t=1.0
    sim.run(until=1.5)
    wal.append("lost", 0.0)  # flush would complete at t=2.5
    sim.call_after(0.5, lambda: (disk.on_crash(), wal.on_crash()))
    sim.run(until=10.0)
    assert wal.entries() == ["durable-candidate"]


def test_wal_truncate_below():
    sim = Simulator()
    disk = make_disk(sim)
    wal = WriteAheadLog(sim, disk)
    for i in range(5):
        wal.append(i, 0.0)
    sim.run()
    removed = wal.truncate_below(lambda e: e >= 3)
    assert removed == 3
    assert wal.entries() == [3, 4]


def test_wal_usable_after_crash():
    sim = Simulator()
    disk = make_disk(sim)
    wal = WriteAheadLog(sim, disk)
    wal.append("before", 0.0)
    sim.run()
    disk.on_crash()
    wal.on_crash()
    wal.append("after", 0.0)
    sim.run()
    assert wal.entries() == ["before", "after"]
