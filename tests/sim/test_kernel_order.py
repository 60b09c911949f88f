"""The kernel fires events in the order of one heap keyed ``(when, seq)``.

The simulator keeps two queues: a heap for everything due later than
the instant it was scheduled at, and a FIFO deque for everything due at
that instant (``call_after(0)``, ``call_at(now)``, a delay too small to
move the clock, the kernel's own wake-ups).  Random programs -- timers
scheduled at top level and from inside callbacks, cancellations,
``step()`` and ``run(until)`` -- must fire in exactly the order of a
reference kernel that pushes every timer through one heap.

Besides the public timers, programs queue the kernel's plain entries
(``_later``: never cancelled, no Timer), process timeouts and CPU
grants; the reference models the last two by the timers they amount to.
Some programs purge the heap of its cancelled timers mid-run: the
threshold is lowered so that small programs reach it.

The clock starts either at 0 or at 1e17, where a delay of 1.0 rounds to
nothing (``1e17 + 1.0 == 1e17``) while 32.0 and 64.0 still move it.

Channels: a process that yields the channel itself waits without an
event per get; it must wake in the same order as one that yields
``channel.get()``, and a killed getter of either kind still consumes
the item put for it.
"""

import heapq
import itertools
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ServiceStation, Simulator

BASES = (0.0, 1e17)
#: 1.0 is a real delay at 0 and rounds to zero at 1e17.
AMOUNTS = (0.0, 1.0, 32.0, 64.0)
#: run(until=now + dt); a negative dt must fire nothing and keep the clock.
UNTIL_STEPS = (-32.0, 0.0, 1.0, 32.0, 100.0)


class _RefTimer:
    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn, args):
        self.fn, self.args, self.cancelled = fn, args, False

    def cancel(self):
        self.cancelled = True


class ReferenceKernel:
    """A single heap keyed ``(when, seq)``: the order to reproduce."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def call_at(self, when, fn, *args):
        assert when >= self.now
        timer = _RefTimer(fn, args)
        heapq.heappush(self._heap, (when, next(self._seq), timer))
        return timer

    def call_after(self, delay, fn, *args):
        assert delay >= 0
        return self.call_at(self.now + delay, fn, *args)

    def _later(self, delay, fn, args):
        self.call_after(delay, fn, *args)

    def _advance(self, until, one):
        while self._heap:
            when, _seq, timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            if when > until:
                return
            heapq.heappop(self._heap)
            self.now = when
            timer.fn(*timer.args)
            if one:
                return

    def step(self):
        self._advance(float("inf"), True)

    def run(self, until=None):
        if until is None:
            self._advance(float("inf"), False)
            return
        self._advance(until, False)
        if until > self.now:
            self.now = until


class ReferenceStation:
    """A FIFO station on the reference kernel: a job's completion wakes
    its waiter (a zero-delay timer), then starts the next job."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.queue = deque()
        self.busy = False

    def request(self, service, fn, *args):
        self.queue.append((service, fn, args))
        if not self.busy:
            self._serve_next()

    def _serve_next(self):
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        service, fn, args = self.queue.popleft()
        self.kernel.call_after(service, self._complete, fn, args)

    def _complete(self, fn, args):
        self.kernel.call_after(0.0, fn, *args)
        self._serve_next()


def sleep_then(sim, amount, fn, *args):
    """A process that sleeps ``amount`` and then calls ``fn(*args)``;
    on the reference, its start (a wake-up now) and its timeout."""
    if isinstance(sim, ReferenceKernel):
        sim.call_after(0.0, sim.call_after, amount, fn, *args)
        return

    def sleeper():
        yield sim.timeout(amount)
        fn(*args)

    sim.spawn(sleeper())


def grant_then(sim, station, amount, fn, *args):
    """A process that takes ``amount`` of CPU and then calls ``fn(*args)``."""
    if isinstance(sim, ReferenceKernel):
        sim.call_after(0.0, station.request, amount, fn, *args)
        return

    def worker():
        yield station.request(amount)
        fn(*args)

    sim.spawn(worker())


# ----------------------------------------------------------------------
# random programs
# ----------------------------------------------------------------------
SCHEDULES = ("at", "after", "plain", "timeout", "grant")


def _ops(children):
    """A schedule op ``(kind, amount, children)`` or a cancel."""
    return st.one_of(
        st.tuples(st.sampled_from(SCHEDULES),
                  st.sampled_from(AMOUNTS), children),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
    )


OPS = st.recursive(
    _ops(st.just(())),
    lambda inner: _ops(st.lists(inner, max_size=3).map(tuple)),
    max_leaves=25,
)
DRIVER = st.one_of(
    OPS.map(lambda op: ("op", op)),
    st.just(("step",)),
    st.sampled_from(UNTIL_STEPS).map(lambda dt: ("until", dt)),
)
PROGRAMS = st.tuples(st.sampled_from(BASES),
                     st.lists(DRIVER, min_size=1, max_size=20))


def execute(sim, program):
    """Run ``program`` on ``sim``; the log of ``(tag, now)`` per firing.

    Tags number scheduling calls in execution order, so two kernels get
    the same tags exactly as long as they have fired the same events in
    the same order.
    """
    base, drivers = program
    log = []
    timers = []
    tags = itertools.count()
    station = (ReferenceStation(sim) if isinstance(sim, ReferenceKernel)
               else ServiceStation(sim))

    def schedule(op):
        if op[0] == "cancel":
            if timers:
                timers[op[1] % len(timers)].cancel()
            return
        kind, amount, children = op
        tag = next(tags)
        if kind == "at":
            timers.append(sim.call_at(sim.now + amount, fire, tag, children))
        elif kind == "after":
            timers.append(sim.call_after(amount, fire, tag, children))
        elif kind == "plain":
            sim._later(amount, fire, (tag, children))
        elif kind == "timeout":
            sleep_then(sim, amount, fire, tag, children)
        else:
            grant_then(sim, station, amount, fire, tag, children)

    def fire(tag, children):
        log.append((tag, sim.now))
        for child in children:
            schedule(child)

    sim.run(until=base)
    for driver in drivers:
        if driver[0] == "op":
            schedule(driver[1])
        elif driver[0] == "step":
            sim.step()
        else:
            sim.run(until=sim.now + driver[1])
        log.append(("clock", sim.now))
    sim.run()
    log.append(("clock", sim.now))
    return log


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS, purge_min=st.sampled_from((100, 4, 0)))
def test_fire_order_equals_a_single_when_seq_heap(program, purge_min):
    sim = Simulator()
    sim.PURGE_MIN_HEAP = purge_min
    assert execute(sim, program) == execute(ReferenceKernel(), program)


def test_cancel_heavy_program_purges_mid_run_in_order():
    # 200 timers wait at t=64 and beyond; at t=1 one callback cancels 150
    # of them, which passes half the heap at the 101st cancel.
    waiting = [("op", ("after", 64.0 + k % 7, ())) for k in range(200)]
    cancels = tuple(("cancel", k) for k in range(1, 151))
    program = (0.0, [("op", ("after", 1.0, cancels + (("plain", 0.0, ()),)))]
               + waiting + [("until", 32.0), ("op", ("after", 1.0, ()))])
    sim = Simulator()
    purges = []
    purge = sim._purge
    sim._purge = lambda: (purges.append((sim.now, len(sim._heap))), purge())
    log = execute(sim, program)
    assert log == execute(ReferenceKernel(), program)
    assert purges == [(1.0, 200)]
    assert sim._cancelled == 0 and not sim._heap


def test_heap_timer_due_now_fires_before_zero_delay_work():
    # The case a deque-first merge gets wrong: B was scheduled for t=32
    # before A's zero-delay follow-up existed, so B fires first.
    for base in BASES:
        program = (base, [("op", ("after", 32.0, (("after", 0.0, ()),))),
                          ("op", ("after", 32.0, ()))])
        log = execute(Simulator(), program)
        assert log == execute(ReferenceKernel(), program)
        assert [tag for tag, _now in log[2:5]] == [0, 1, 2]


# ----------------------------------------------------------------------
# channels: ``yield ch`` against ``yield ch.get()``
# ----------------------------------------------------------------------
GETTERS = st.lists(
    st.tuples(st.booleans(),                       # yields the channel itself
              st.sampled_from((0.0, 1.0, 2.0)),    # start time
              st.integers(1, 3),                   # items wanted
              st.one_of(st.none(), st.sampled_from((0.5, 1.5, 2.5)))),  # kill
    min_size=1, max_size=5)
PUTS = st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0)), max_size=12)


def run_channel_program(getters, puts, direct):
    """``direct(flag)`` decides whether a getter yields the channel
    itself; the log records who got which item when."""
    sim = Simulator()
    channel = sim.channel()
    log = []

    def getter(index, use_channel, wanted):
        for _ in range(wanted):
            item = yield (channel if use_channel else channel.get())
            log.append((index, item, sim.now))

    for index, (flag, start, wanted, kill_at) in enumerate(getters):
        def start_getter(index=index, flag=flag, wanted=wanted,
                         kill_at=kill_at):
            process = sim.spawn(getter(index, direct(flag), wanted))
            if kill_at is not None:
                sim.call_at(max(kill_at, sim.now), process.kill)
        sim.call_at(start, start_getter)
    for item, at in enumerate(puts):
        sim.call_at(at, channel.put, item)
    sim.run()
    return log, list(channel.drain())


@settings(max_examples=200, deadline=None)
@given(getters=GETTERS, puts=PUTS)
def test_yield_channel_wakes_like_yield_get(getters, puts):
    mixed = run_channel_program(getters, puts, direct=lambda flag: flag)
    via_get = run_channel_program(getters, puts, direct=lambda flag: False)
    assert mixed == via_get


def test_killed_getter_still_consumes_its_item():
    for use_channel in (True, False):
        sim = Simulator()
        channel = sim.channel()
        got = []

        def getter(use_channel=use_channel):
            got.append((yield (channel if use_channel
                               else channel.get())))

        first = sim.spawn(getter())
        second = sim.spawn(getter())
        sim.run()           # both are now waiting, first in line
        first.kill()
        channel.put("eaten")
        channel.put("kept")
        sim.run()
        assert got == ["kept"]
        assert second.finished and len(channel) == 0
