"""Event loop, processes, and synchronization primitives.

The kernel is a classic calendar-queue discrete-event simulator.  Code that
needs to *wait* is written as a generator that yields *awaitables*:

* ``yield sim.timeout(2.5)`` -- sleep 2.5 simulated seconds.
* ``yield event`` -- wait until :meth:`Event.succeed` is called.
* ``yield channel.get()`` -- wait for the next item in a FIFO channel
  (``yield channel`` waits the same way without an event per item).
* ``yield grant`` -- wait for a CPU job (:mod:`repro.sim.resource`).

Those are all the waits there are.  A process leaves a wait only by the
wait completing or by being killed, so no wait is ever abandoned: an
item a channel hands to a getter is always the getter's to read.  Code
that must give up waiting arms a cancellable :class:`Timer`
(:meth:`Simulator.call_after`) that completes the event it waits on.

A generator becomes a running :class:`Process` via :meth:`Simulator.spawn`.
Processes can be killed (e.g. when the simulated node hosting them crashes);
a killed process simply never resumes, mirroring the abrupt death of an OS
process.  Nothing waits for a process to finish: a process's result is
whatever it puts in a channel or an event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Simulator:
    """The discrete-event engine: a virtual clock and an ordered event heap.

    Events scheduled for the same instant fire in scheduling order, which
    keeps runs fully deterministic.

    Both queues hold plain entries: ``(when, seq, fn, args)`` in the heap,
    ``(fn, args)`` in the ready deque, fired as ``fn(*args)``.  Only the
    public :meth:`call_at` / :meth:`call_after` build a cancellable
    :class:`Timer`; its entry carries the timer in place of ``fn`` and
    ``None`` in place of ``args``.  The kernel's own work -- network
    deliveries, CPU completions, process timeouts and wake-ups -- is never
    cancelled and goes in as a plain entry (:meth:`_later`, or an append
    to ``_ready``).
    """

    #: A heap at least this long is purged of its cancelled timers once
    #: they are more than half of it (asyncio's rule).
    PURGE_MIN_HEAP = 100

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Any] = []
        # Everything due *now* -- ``call_after(0)``, ``call_at(now)``, a
        # delay too small to move the clock, and the kernel's own
        # wake-ups -- goes into a FIFO deque instead of the heap; see
        # ``_advance`` for why that keeps the single-heap (when, seq) order.
        self._ready: Deque[Any] = deque()
        self._counter = itertools.count()
        # Cancelled timers still in the heap (see Timer.cancel).
        self._cancelled = 0
        self._processes_started = 0
        # Optional hooks attached by the harness: a metrics registry
        # (repro.obs.registry), an event-kernel profiler, and the event
        # log (repro.sim.trace) that the span tracer, flight recorder
        # and safety audit subscribe to.  All stay None on
        # uninstrumented runs; the profiler is the only one the kernel
        # itself consults (one None-check per event).
        self.metrics = None
        self.profiler = None
        self.event_log = None
        # The process currently being resumed, for trace propagation:
        # code running inside a process can ask "whose causal context am
        # I in?" without threading arguments through every generator.
        self._current: Optional["Process"] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> "Timer":
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        timer = Timer(fn, args)
        if when == self.now:
            self._ready.append((timer, None))
        elif when > self.now:
            timer._sim = self
            heapq.heappush(self._heap, (when, next(self._counter), timer, None))
        else:  # also rejects NaN, which orders nowhere
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        return timer

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> "Timer":
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        timer = Timer(fn, args)
        if delay > 0:
            when = self.now + delay
            if when != self.now:
                timer._sim = self
                heapq.heappush(self._heap,
                               (when, next(self._counter), timer, None))
                return timer
        elif delay != 0:  # negative, or NaN
            raise SimulationError(f"negative delay: {delay}")
        self._ready.append((timer, None))  # zero, or too small to move the clock
        return timer

    def _later(self, delay: float, fn: Callable[..., None], args: tuple) -> None:
        """``call_after`` for the kernel's own work, which nobody cancels:
        one plain entry, no :class:`Timer`."""
        if delay > 0:
            when = self.now + delay
            if when != self.now:
                heapq.heappush(self._heap, (when, next(self._counter), fn, args))
                return
        elif delay != 0:  # negative, or NaN
            raise SimulationError(f"negative delay: {delay}")
        self._ready.append((fn, args))

    def _purge(self) -> None:
        """Drop every cancelled timer from the heap.  Entries are unique
        by (when, seq), so the rebuilt heap pops in the same order."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[3] is not None or not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _advance(self, until: float, one: bool) -> bool:
        """Fire live events in global (when, seq) order while ``when <=
        until``; with ``one``, stop after the first.  Returns whether any
        event fired.

        The heap holds ``(when, seq, fn, args)`` entries for everything
        due later than the instant it was scheduled at, so ``heapq``
        orders them in C; the ready deque holds, in scheduling order,
        everything that was due at the instant it was scheduled, which is
        always the current one.  A heap entry due now was therefore
        scheduled at an earlier instant than every deque entry and so has
        the smaller seq: the heap top fires first iff its ``when`` is
        now, the deque head otherwise -- exactly the order a single heap
        would produce.  An entry whose ``args`` is ``None`` holds a
        :class:`Timer` in place of ``fn``.
        """
        ready = self._ready
        heap = self._heap
        pop = heapq.heappop
        popleft = ready.popleft
        fired = False
        while True:
            if heap and (not ready or heap[0][0] <= self.now):
                when, _seq, fn, args = heap[0]
                if args is None:  # a timer
                    if fn.cancelled:
                        pop(heap)
                        self._cancelled -= 1
                        continue
                    if when > until:
                        break
                    pop(heap)
                    fn._sim = None  # fired: a late cancel counts nothing
                    fn, args = fn.fn, fn.args
                else:
                    if when > until:
                        break
                    pop(heap)
                self.now = when
            elif ready:
                if self.now > until:
                    break
                fn, args = popleft()
                if args is None:  # a timer
                    if fn.cancelled:
                        continue
                    fn, args = fn.fn, fn.args
            else:
                break
            profiler = self.profiler
            if profiler is None:
                fn(*args)
            else:
                start = profiler.clock()
                fn(*args)
                profiler.record(fn, profiler.clock() - start)
            fired = True
            if one:
                break
        return fired

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        return self._advance(math.inf, True)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the simulation went quiet earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is None:
            self._advance(math.inf, False)
            return
        self._advance(until, False)
        if until > self.now:
            self.now = until

    # ------------------------------------------------------------------
    # processes and primitives
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator[Any, Any, Any], name: str = "") -> "Process":
        """Start a generator as a concurrent process."""
        self._processes_started += 1
        return Process(self, gen, name or f"proc-{self._processes_started}")

    def timeout(self, delay: float) -> "Timeout":
        """An awaitable that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay)

    def event(self) -> "Event":
        """A fresh, untriggered :class:`Event`."""
        return Event(self)

    def channel(self) -> "Channel":
        """A fresh FIFO :class:`Channel`."""
        return Channel(self)

    def run_process(self, gen: Generator[Any, Any, Any]) -> Any:
        """Convenience for tests: run ``gen`` to completion and return its value."""
        proc = self.spawn(gen)
        self.run()
        if not proc.finished:
            raise SimulationError("process did not finish (deadlock?)")
        if proc.error is not None:
            raise proc.error
        return proc.value


class Timer:
    """A cancellable entry in the simulator's ready deque or event heap."""

    __slots__ = ("fn", "args", "cancelled", "_sim")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args
        self.cancelled = False
        # The simulator while the timer waits in its heap, else None.
        self._sim: Optional[Simulator] = None

    def cancel(self) -> None:
        """Never fire.  The callback and its arguments are let go now, so
        whatever they reference is freed at the cancel, not at the
        expiry.  The entry itself is dropped when it reaches the front
        of its queue, or earlier: once cancelled timers are more than
        half of a heap of at least ``Simulator.PURGE_MIN_HEAP`` entries,
        the heap is rebuilt without them."""
        self.cancelled = True
        self.fn = None
        self.args = ()
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled += 1
            size = len(sim._heap)
            if size >= sim.PURGE_MIN_HEAP and 2 * sim._cancelled > size:
                sim._purge()


class Awaitable:
    """Base protocol for objects a process may ``yield``:
    ``_subscribe(process)`` makes the awaitable resume ``process`` once."""

    __slots__ = ()

    def _subscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Timeout(Awaitable):
    """Resumes the waiting process after a fixed delay."""

    __slots__ = ("_sim", "_delay")

    def __init__(self, sim: Simulator, delay: float):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout: {delay}")
        self._sim = sim
        self._delay = delay

    def _subscribe(self, process: "Process") -> None:
        self._sim._later(self._delay, process._resume, (None,))


class Event(Awaitable):
    """A one-shot event that multiple processes may wait on.

    ``succeed(value)`` resumes all waiters with ``value``.  Triggering
    twice is an error; waiting on an already-triggered event resumes
    immediately.  An event cannot fail: whatever can go wrong is part of
    the value it carries.
    """

    __slots__ = ("_sim", "_waiters", "_callbacks", "triggered", "value")

    def __init__(self, sim: Simulator):
        self._sim = sim
        # None, the one waiting process (the common case), or a list.
        self._waiters: Any = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        self._fire()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            self._sim._ready.append((fn, (self,)))
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        # Waiters resume, then callbacks run, at this instant after
        # everything already due.
        ready = self._sim._ready
        waiters, self._waiters = self._waiters, None
        if waiters is not None:
            outcome = (self.value,)
            if waiters.__class__ is Process:  # one waiter: the common case
                waiters = (waiters,)
            for process in waiters:
                ready.append((process._resume, outcome))
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is not None:
            for fn in callbacks:
                ready.append((fn, (self,)))

    def _subscribe(self, process: "Process") -> None:
        waiters = self._waiters
        if self.triggered:
            self._sim._ready.append((process._resume, (self.value,)))
        elif waiters is None:
            self._waiters = process
        elif waiters.__class__ is Process:
            self._waiters = [waiters, process]
        else:
            waiters.append(process)


class Channel(Awaitable):
    """Unbounded FIFO channel.

    ``put`` never blocks; ``get`` returns an awaitable that yields the next
    item.  Yielding the channel itself waits the same way without an
    :class:`Event` per item: the process queues as a getter directly.
    """

    __slots__ = ("_sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._items: Deque[Any] = deque()
        # Waiting getters in arrival order: get() events, or processes
        # that yielded the channel itself.
        self._getters: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter.__class__ is Process:
                # Resumed even if it was killed meanwhile: a dead getter
                # consumes its item, as its untriggered get() event would.
                self._sim._ready.append((getter._resume, (item,)))
                return
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        event = Event(self._sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return all queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items

    def take(self, max_items: int) -> List[Any]:
        """Remove and return up to ``max_items`` queued items, no waiting."""
        items: List[Any] = []
        while self._items and len(items) < max_items:
            items.append(self._items.popleft())
        return items

    def _subscribe(self, process: "Process") -> None:
        if self._items:
            self._sim._ready.append((process._resume,
                                     (self._items.popleft(),)))
        else:
            self._getters.append(process)


class Process:
    """A running generator, resumed by whatever it yields."""

    __slots__ = ("_sim", "_gen", "name", "finished", "killed", "value",
                 "error", "trace", "hosted")

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.killed = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        # Causal context: a trace id stamped on request-handling
        # processes so work running under them can be attributed.
        self.trace: Optional[str] = None
        # Set by Node.spawn: the node owns the process, so a failure
        # stays on ``error`` instead of stopping the kernel (a crashed
        # OS process does not stop its machine).
        self.hosted = False
        sim._ready.append((self._resume, (None,)))

    def kill(self) -> None:
        """Stop the process dead: it never runs again.

        Used to model a machine crash; the process gets no chance to clean
        up, exactly like a killed OS process.  Whatever it was waiting on
        may still resume it, which does nothing: a channel item handed to
        a killed getter is consumed with it, as it would be by a dead
        reader.  Cross-node observers must use timeouts or failure
        detection, as in a real distributed system.
        """
        if self.finished:
            return
        self.killed = True
        self.finished = True
        self._gen.close()

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        sim = self._sim
        sim._current = self
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - process body failed
            self._finish(None, exc)
            return
        finally:
            sim._current = None
        try:
            subscribe = yielded._subscribe
        except AttributeError:
            self._not_awaitable(yielded)
        subscribe(self)

    def _not_awaitable(self, yielded: Any) -> None:
        raise SimulationError(
            f"process {self.name!r} yielded a non-awaitable: {yielded!r}"
        ) from None

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        self.finished = True
        self.value = value
        self.error = error
        if error is not None and not self.hosted:
            # No node owns it: surface the failure instead of losing it.
            raise error

    def __repr__(self) -> str:
        state = "killed" if self.killed else ("done" if self.finished else "running")
        return f"<Process {self.name} {state}>"
