"""An interrupted process stops waiting for what it yielded.

A process waits on an awaitable, is interrupted at t=1, catches
:class:`Interrupted` and sleeps 5 s.  The abandoned awaitable completes
at t=2; it must not end that sleep early: the process wakes at t=6.
Each kind of awaitable is covered: an event, a ``get()`` event, the
channel itself, a timeout, a CPU grant and a joined process.
"""

import pytest

from repro.sim import Interrupted, ServiceStation, Simulator


def _abandon(sim, make_wait, complete_at_2):
    """Run the scenario; return the wake-up times the process logged."""
    log = []

    def waiter():
        try:
            yield make_wait()
            log.append(("resumed", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))
            yield sim.timeout(5.0)
            log.append(("slept", sim.now))

    process = sim.spawn(waiter())
    sim.call_at(1.0, process.interrupt, "stop")
    if complete_at_2 is not None:
        sim.call_at(2.0, complete_at_2)
    sim.run()
    return log


EXPECTED = [("interrupted", 1.0), ("slept", 6.0)]


def test_abandoned_event_does_not_resume_the_process():
    sim = Simulator()
    event = sim.event()
    assert _abandon(sim, lambda: event, lambda: event.succeed("late")) \
        == EXPECTED


def test_abandoned_failing_event_does_not_throw_into_the_process():
    sim = Simulator()
    event = sim.event()
    log = _abandon(sim, lambda: event,
                   lambda: event.fail(RuntimeError("late")))
    assert log == EXPECTED


def test_abandoned_event_still_wakes_its_other_waiters():
    sim = Simulator()
    event = sim.event()
    other = []

    def bystander():
        other.append((yield event))

    sim.spawn(bystander())
    assert _abandon(sim, lambda: event, lambda: event.succeed("late")) \
        == EXPECTED
    assert other == ["late"]


def test_abandoned_channel_get_does_not_resume_the_process():
    sim = Simulator()
    channel = sim.channel()
    assert _abandon(sim, channel.get, lambda: channel.put("late")) \
        == EXPECTED


def test_abandoned_channel_wait_leaves_the_item_queued():
    sim = Simulator()
    channel = sim.channel()
    assert _abandon(sim, lambda: channel, lambda: channel.put("late")) \
        == EXPECTED
    assert channel.drain() == ["late"]


def test_abandoned_timeout_does_not_end_a_later_sleep():
    sim = Simulator()
    assert _abandon(sim, lambda: sim.timeout(1.0 + 1.0), None) == EXPECTED


def test_abandoned_zero_delay_timeout_is_dropped_too():
    # Interrupted at the instant it yields a zero-delay timeout, whose
    # wake-up is still queued in the ready deque.
    sim = Simulator()
    log = []

    def sleeper():
        yield sim.timeout(1.0)
        try:
            yield sim.timeout(0.0)
            log.append(("resumed", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))
            yield sim.timeout(5.0)
            log.append(("slept", sim.now))

    process = sim.spawn(sleeper())

    def interrupt_once_waiting():
        yield sim.timeout(1.0)
        process.interrupt()

    sim.spawn(interrupt_once_waiting())
    sim.run()
    assert log == EXPECTED


def test_abandoned_grant_does_not_resume_the_process():
    sim = Simulator()
    station = ServiceStation(sim)
    assert _abandon(sim, lambda: station.request(2.0), None) == EXPECTED
    # The job itself still ran: only the wait was abandoned.
    assert station.jobs_served == 1
    assert station.total_busy_time == 2.0


def test_abandoned_join_does_not_resume_the_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return "done"

    joined = sim.spawn(worker())
    assert _abandon(sim, lambda: joined, None) == EXPECTED
    assert joined.value == "done"


def test_interrupt_after_the_resume_is_queued_lands_at_the_next_wait():
    # The event fires at t=1 just before the interrupt: the process still
    # gets the event's value, then the Interrupted at its next wait, and
    # that wait's timeout (due at t=3) no longer resumes it either.
    sim = Simulator()
    event = sim.event()
    log = []

    def waiter():
        log.append(("value", (yield event), sim.now))
        try:
            yield sim.timeout(2.0)
            log.append(("timeout", sim.now))
        except Interrupted:
            log.append(("interrupted", sim.now))
            yield sim.timeout(5.0)
            log.append(("slept", sim.now))

    process = sim.spawn(waiter())
    sim.call_at(1.0, event.succeed, "v")
    sim.call_at(1.0, process.interrupt)
    sim.run()
    assert log == [("value", "v", 1.0), ("interrupted", 1.0), ("slept", 6.0)]


def test_uncaught_interrupt_finishes_the_process_with_the_error():
    sim = Simulator()
    event = sim.event()

    def waiter():
        yield event

    process = sim.spawn(waiter())
    process.hosted = True
    sim.call_at(1.0, process.interrupt, "stop")
    sim.call_at(2.0, event.succeed)
    sim.run()
    assert process.finished
    assert isinstance(process.error, Interrupted)
    with pytest.raises(Interrupted, match="stop"):
        raise process.error
