"""CPU and disk grants: a station job without an ``Event``.

``ServiceStation.request`` returns a :class:`Grant`.  A process that
yields it must resume exactly where a process waiting on the station's
former per-job :class:`Event` did; callback users (the disk's byte
booking, the WAL's group commit) keep working; ``reset()`` drops queued
and in-service grants without resuming anyone.  ``EventStation`` below
is the former Event-per-job station, kept as the reference.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (Disk, DiskParams, Grant, ServiceStation, Simulator,
                       WriteAheadLog)


class EventStation:
    """The station as it was: one Event per job, completed by a Timer."""

    def __init__(self, sim, speed=1.0):
        self._sim = sim
        self.speed = speed
        self._queues = (deque(), deque())
        self._busy = False
        self._epoch = 0
        self.total_busy_time = 0.0
        self.jobs_served = 0

    def request(self, service_time, priority=0):
        done = self._sim.event()
        self._queues[priority].append((service_time, done))
        if not self._busy:
            self._serve_next()
        return done

    def reset(self):
        for queue in self._queues:
            queue.clear()
        self._busy = False
        self._epoch += 1

    def _serve_next(self):
        high, low = self._queues
        queue = high or low
        if not queue:
            self._busy = False
            return
        self._busy = True
        service_time, done = queue.popleft()
        occupancy = service_time / self.speed
        self.total_busy_time += occupancy
        self._sim.call_after(occupancy, self._complete, self._epoch, done)

    def _complete(self, epoch, done):
        if epoch != self._epoch:
            return
        self.jobs_served += 1
        if not done.triggered:
            done.succeed(None)
        self._serve_next()


# A job: (start time, service time, priority, follow-up service or None,
# a callback user instead of a waiting process).
JOBS = st.lists(
    st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
              st.sampled_from((0.0, 0.25, 0.5, 1.0)),
              st.sampled_from((0, 1)),
              st.one_of(st.none(), st.sampled_from((0.0, 0.5))),
              st.booleans()),
    min_size=1, max_size=12)
RESETS = st.lists(st.sampled_from((0.75, 1.5, 2.25)), max_size=2)


def run_jobs(make_station, jobs, resets, speed):
    """Who resumed (or was called back) when, plus the station's tallies.
    A sleeper ticking every 0.25 s interleaves with the completions."""
    sim = Simulator()
    station = make_station(sim, speed)
    log = []

    def job(tag, service, priority, follow_up):
        yield station.request(service, priority)
        log.append((tag, "done", sim.now))
        if follow_up is not None:
            yield station.request(follow_up, priority)
            log.append((tag, "again", sim.now))

    def callback_user(tag, service, priority):
        station.request(service, priority).add_callback(
            lambda _grant: log.append((tag, "callback", sim.now)))

    def ticker():
        for _ in range(12):
            yield sim.timeout(0.25)
            log.append(("tick", sim.now))

    sim.spawn(ticker())
    for tag, (start, service, priority, follow_up, by_callback) in \
            enumerate(jobs):
        if by_callback:
            sim.call_at(start, callback_user, tag, service, priority)
        else:
            sim.call_at(start, lambda tag=tag, service=service,
                        priority=priority, follow_up=follow_up:
                        sim.spawn(job(tag, service, priority, follow_up)))
    for at in resets:
        sim.call_at(at, station.reset)
    sim.run()
    return log, station.jobs_served, station.total_busy_time


@settings(max_examples=200, deadline=None)
@given(jobs=JOBS, resets=RESETS, speed=st.sampled_from((1.0, 2.0, 0.3)))
def test_grants_resume_like_the_event_station(jobs, resets, speed):
    grants = run_jobs(lambda sim, speed: ServiceStation(sim, speed=speed),
                      jobs, resets, speed)
    events = run_jobs(EventStation, jobs, resets, speed)
    # Same resumes and callbacks in the same order at the same times,
    # and the same jobs_served and total_busy_time, bit for bit.
    assert grants == events


def test_priority_classes_are_served_like_the_event_station():
    jobs = [(0.0, 1.0, 1, None, False), (0.0, 1.0, 1, 0.5, False),
            (0.5, 0.25, 0, None, False), (0.5, 0.25, 1, None, True),
            (0.5, 0.5, 0, 0.25, True)]
    grants = run_jobs(lambda sim, speed: ServiceStation(sim, speed=speed),
                      jobs, [], 1.0)
    assert grants == run_jobs(EventStation, jobs, [], 1.0)
    order = [tag for tag, what, _t in
             (entry for entry in grants[0] if entry[0] != "tick")
             if what == "done"]
    # Job 0 is in service (no preemption); middleware (priority 0) job
    # 2 then jumps the queued bulk job 1.
    assert order[:3] == [0, 2, 1]


def test_waiter_resumes_before_the_callbacks_of_its_grant():
    sim = Simulator()
    station = ServiceStation(sim)
    order = []
    grant = station.request(1.0)
    grant.add_callback(lambda g: order.append(("callback", g is grant)))

    def waiter():
        value = yield grant
        order.append(("waiter", value))

    sim.spawn(waiter())
    sim.run()
    assert order == [("waiter", None), ("callback", True)]
    assert grant.triggered
    # Late subscribers run at once, like a triggered event's.
    late = []
    grant.add_callback(lambda g: late.append(sim.now))

    def late_waiter():
        yield grant
        late.append("resumed")

    sim.spawn(late_waiter())
    sim.run()
    assert late == [1.0, "resumed"]


def test_reset_drops_queued_and_in_service_grants_and_resumes_nothing():
    sim = Simulator()
    station = ServiceStation(sim)
    resumed = []

    def job(tag, service):
        yield station.request(service)
        resumed.append(tag)

    for tag in ("in-service", "queued-1", "queued-2"):
        sim.spawn(job(tag, 1.0))
    sim.run(until=0.0)  # the three processes request, in that order
    station.request(1.0).add_callback(lambda _g: resumed.append("callback"))
    sim.call_at(0.5, station.reset)
    sim.run()
    assert resumed == []
    assert station.jobs_served == 0
    assert not station.busy and station.queue_length == 0
    # Only the job in service at the reset had been charged.
    assert station.total_busy_time == 1.0


def test_request_returns_a_grant():
    sim = Simulator()
    assert isinstance(ServiceStation(sim).request(0.0), Grant)


def test_disk_books_bytes_and_wal_commits_through_grants():
    sim = Simulator()
    disk = Disk(sim, DiskParams(sync_write_latency_s=0.01,
                                write_bandwidth_mb_s=10.0,
                                read_latency_s=0.01,
                                read_bandwidth_mb_s=10.0))
    wal = WriteAheadLog(sim, disk)
    durable = []
    done = []

    def writer():
        yield disk.write(1.0)
        done.append(("write", sim.now, disk.bytes_written_mb))
        yield disk.read(2.0)
        done.append(("read", sim.now, disk.bytes_read_mb))

    sim.spawn(writer())
    wal.append("entry", 0.5).add_callback(
        lambda _event: durable.append(sim.now))
    sim.run()
    # The WAL's group write is queued first: 0.01 + 0.5002/10 s.
    assert durable == [0.01 + 0.5002 / 10.0]
    assert wal.entries() == ["entry"]
    # The byte booking is a callback on the same grant, queued after the
    # waiter's resume: the writer sees the counter one step later.
    assert done[0][2] == 0.5002
    assert [what for what, _t, _mb in done] == ["write", "read"]
    assert disk.bytes_written_mb == 1.0 + 0.5002
    assert disk.bytes_read_mb == 2.0
