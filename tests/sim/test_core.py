"""Unit tests for the discrete-event kernel."""

import gc
import math
import weakref

import pytest

from repro.sim import Interrupted, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_orders_by_time():
    sim = Simulator()
    order = []
    sim.call_after(2.0, order.append, "b")
    sim.call_after(1.0, order.append, "a")
    sim.call_after(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("x", "y", "z"):
        sim.call_after(1.0, order.append, tag)
    sim.run()
    assert order == ["x", "y", "z"]


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_after(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_until_advances_clock_when_idle():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.call_after(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.call_at(math.nan, lambda: None),
    lambda sim: sim.call_after(math.nan, lambda: None),
    lambda sim: sim.timeout(math.nan),
], ids=["call_at", "call_after", "timeout"])
def test_nan_time_rejected(schedule):
    # NaN compares false both ways, so a ``when < now`` guard would let
    # it into the heap, where no ordering holds.
    sim = Simulator()
    with pytest.raises(SimulationError):
        schedule(sim)
    sim.run()
    assert sim.now == 0.0


def test_infinite_time_still_allowed():
    sim = Simulator()
    fired = []
    sim.call_at(math.inf, fired.append, "at")
    sim.call_after(math.inf, fired.append, "after")
    sim.call_after(1.0, fired.append, "soon")
    sim.run(until=10.0)
    assert fired == ["soon"] and sim.now == 10.0


def test_timer_cancel():
    sim = Simulator()
    fired = []
    timer = sim.call_after(1.0, fired.append, 1)
    timer.cancel()
    sim.run()
    assert fired == []


def test_cancel_lets_go_of_the_callback_before_expiry():
    sim = Simulator()
    fired = []

    class Callback:
        def __call__(self, payload):
            fired.append(payload)

    callback, payload = Callback(), Callback()
    alive = [weakref.ref(callback), weakref.ref(payload)]
    timer = sim.call_after(5.0, callback, payload)
    del callback, payload
    gc.disable()
    try:
        timer.cancel()
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()
    sim.run()
    assert fired == [] and sim.now == 0.0


def test_process_timeout_advances_clock():
    sim = Simulator()
    trace = []

    def proc():
        yield sim.timeout(1.5)
        trace.append(sim.now)
        yield sim.timeout(0.5)
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [1.5, 2.0]


def test_run_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    assert sim.run_process(proc()) == 42


def test_run_process_propagates_error():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(proc())


def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    event = sim.event()
    results = []

    def waiter():
        value = yield event
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.spawn(waiter())
    sim.call_after(3.0, event.succeed, "go")
    sim.run()
    assert results == [(3.0, "go"), (3.0, "go")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.call_after(1.0, event.fail, RuntimeError("bad"))
    sim.run()
    assert caught == ["bad"]


def test_waiting_on_triggered_event_resumes_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed(7)

    def proc():
        value = yield event
        return value

    assert sim.run_process(proc()) == 7


def test_event_double_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_callback_after_trigger_runs():
    sim = Simulator()
    event = sim.event()
    event.succeed("x")
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


def test_channel_fifo_order():
    sim = Simulator()
    channel = sim.channel()
    received = []

    def consumer():
        for _ in range(3):
            item = yield channel.get()
            received.append(item)

    sim.spawn(consumer())
    for i in (1, 2, 3):
        channel.put(i)
    sim.run()
    assert received == [1, 2, 3]


def test_channel_blocks_until_put():
    sim = Simulator()
    channel = sim.channel()
    got_at = []

    def consumer():
        item = yield channel.get()
        got_at.append((sim.now, item))

    sim.spawn(consumer())
    sim.call_after(5.0, channel.put, "late")
    sim.run()
    assert got_at == [(5.0, "late")]


def test_channel_multiple_getters_served_in_order():
    sim = Simulator()
    channel = sim.channel()
    results = []

    def consumer(tag):
        item = yield channel.get()
        results.append((tag, item))

    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))
    sim.run()
    channel.put("a")
    channel.put("b")
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_channel_drain():
    sim = Simulator()
    channel = sim.channel()
    channel.put(1)
    channel.put(2)
    assert channel.drain() == [1, 2]
    assert len(channel) == 0


def test_yield_channel_directly_is_get():
    sim = Simulator()
    channel = sim.channel()
    channel.put("item")

    def proc():
        value = yield channel
        return value

    assert sim.run_process(proc()) == "item"


def test_join_process_returns_its_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)
        return "done"

    def parent():
        worker_proc = sim.spawn(worker())
        result = yield worker_proc
        return (sim.now, result)

    assert sim.run_process(parent()) == (2.0, "done")


def test_join_finished_process_resumes_immediately():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 5

    worker_proc = sim.spawn(worker())
    sim.run()

    def parent():
        value = yield worker_proc
        return value

    assert sim.run_process(parent()) == 5


def test_killed_process_never_resumes():
    sim = Simulator()
    trace = []

    def victim():
        yield sim.timeout(1.0)
        trace.append("before")
        yield sim.timeout(1.0)
        trace.append("after")

    proc = sim.spawn(victim())
    sim.call_after(1.5, proc.kill)
    sim.run()
    assert trace == ["before"]
    assert proc.killed


def test_joining_killed_process_waits_forever():
    sim = Simulator()

    def victim():
        yield sim.timeout(10.0)

    victim_proc = sim.spawn(victim())
    joined = []

    def parent():
        yield victim_proc
        joined.append(True)

    sim.spawn(parent())
    sim.call_after(1.0, victim_proc.kill)
    sim.run()
    assert joined == []


def test_interrupt_raises_inside_process():
    sim = Simulator()
    trace = []

    def proc():
        try:
            yield sim.timeout(100.0)
        except Interrupted as exc:
            trace.append(("interrupted", str(exc), sim.now))

    process = sim.spawn(proc())
    sim.call_after(2.0, process.interrupt, "stop now")
    sim.run()
    assert trace == [("interrupted", "stop now", 2.0)]


def test_unwatched_process_error_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    sim.spawn(bad())
    with pytest.raises(KeyError):
        sim.run()


def test_yielding_non_awaitable_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_nested_subprocess_composition():
    sim = Simulator()

    def inner(n):
        yield sim.timeout(n)
        return n * 2

    def outer():
        total = 0
        for n in (1, 2, 3):
            value = yield sim.spawn(inner(n))
            total += value
        return (sim.now, total)

    assert sim.run_process(outer()) == (6.0, 12)
