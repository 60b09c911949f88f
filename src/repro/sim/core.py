"""Event loop, processes, and synchronization primitives.

The kernel is a classic calendar-queue discrete-event simulator.  Code that
needs to *wait* is written as a generator that yields *awaitables*:

* ``yield sim.timeout(2.5)`` -- sleep 2.5 simulated seconds.
* ``yield event`` -- wait until :meth:`Event.succeed` is called.
* ``yield channel.get()`` -- wait for the next item in a FIFO channel.
* ``yield other_process`` -- wait for another process to finish.

A generator becomes a running :class:`Process` via :meth:`Simulator.spawn`.
Processes can be killed (e.g. when the simulated node hosting them crashes);
a killed process simply never resumes, mirroring the abrupt death of an OS
process.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupted(Exception):
    """Raised inside a process that is interrupted via :meth:`Process.interrupt`."""


class Simulator:
    """The discrete-event engine: a virtual clock and an ordered event heap.

    Events scheduled for the same instant fire in scheduling order, which
    keeps runs fully deterministic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Any] = []
        # Zero-delay fast path: the overwhelming majority of scheduled
        # events are ``call_after(0, ...)`` (process starts, event fires,
        # channel hand-offs).  Those never need heap ordering -- they fire
        # at the current instant, in scheduling order -- so they go into a
        # FIFO deque instead of the heap.  ``_advance`` merges the two
        # structures by the same global (when, seq) key, keeping the event
        # order bit-for-bit identical to an all-heap kernel.
        self._ready: Deque[Timer] = deque()
        self._counter = itertools.count()
        self._processes_started = 0
        # Optional hooks attached by the harness: a metrics registry
        # (repro.obs.registry), an event-kernel profiler, and a causal
        # span tracer (repro.obs.trace).  All stay None on
        # uninstrumented runs; the profiler is the only one the kernel
        # itself consults (one None-check per event).
        self.metrics = None
        self.profiler = None
        self.spans = None
        # The process currently being resumed, for trace propagation:
        # code running inside a process can ask "whose causal context am
        # I in?" without threading arguments through every generator.
        self._current: Optional["Process"] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> "Timer":
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        if not when >= self.now:  # also rejects NaN, which orders nowhere
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        seq = next(self._counter)
        timer = Timer(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, timer))
        return timer

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> "Timer":
        """Schedule ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay == 0:
            # O(1) append instead of an O(log n) heap push; see __init__.
            timer = Timer(self.now, next(self._counter), fn, args)
            self._ready.append(timer)
            return timer
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay: {delay}")
        when = self.now + delay
        seq = next(self._counter)
        timer = Timer(when, seq, fn, args)
        heapq.heappush(self._heap, (when, seq, timer))
        return timer

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _advance(self, until: float, one: bool) -> bool:
        """Fire live events in global (when, seq) order while ``when <=
        until``; with ``one``, stop after the first.  Returns whether any
        event fired.

        The ready deque holds zero-delay timers in scheduling order; the
        heap holds ``(when, seq, timer)`` entries for everything else, so
        ``heapq`` orders them in C without calling back into Python.
        Comparing the deque head against the heap top by the shared
        (when, seq) key reproduces exactly the order a single heap would
        produce.  Each event is peeked once: cancellation, the merge and
        the ``until`` bound are all decided on the same look.
        """
        ready = self._ready
        heap = self._heap
        pop = heapq.heappop
        fired = False
        while True:
            if ready:
                timer = ready[0]
                if timer.cancelled:
                    ready.popleft()
                    continue
                from_heap = False
                if heap:
                    top = heap[0]
                    if top[2].cancelled:
                        pop(heap)
                        continue
                    if top[0] < timer.when or (
                        top[0] == timer.when and top[1] < timer.seq
                    ):
                        timer = top[2]
                        from_heap = True
                if timer.when > until:
                    break
                if from_heap:
                    pop(heap)
                else:
                    ready.popleft()
            elif heap:
                timer = heap[0][2]
                if timer.cancelled:
                    pop(heap)
                    continue
                if timer.when > until:
                    break
                pop(heap)
            else:
                break
            self.now = timer.when
            profiler = self.profiler
            if profiler is None:
                timer.fn(*timer.args)
            else:
                fn = timer.fn  # the callback may cancel its own timer
                start = profiler.clock()
                fn(*timer.args)
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
    """A cancellable entry in the simulator's event heap."""

    __slots__ = ("when", "seq", "fn", "args", "cancelled")

    def __init__(self, when: float, seq: int, fn: Callable[..., None], args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Never fire.  The entry stays queued until its time comes
        (``_advance`` then drops it without reading anything else), so
        the callback and its arguments are let go now: whatever they
        reference is freed at the cancel, not at the expiry."""
        self.cancelled = True
        self.fn = None
        self.args = ()


class Awaitable:
    """Base protocol for objects a process may ``yield``."""

    def _subscribe(self, process: "Process") -> None:
        raise NotImplementedError


class Timeout(Awaitable):
    """Resumes the waiting process after a fixed delay."""

    def __init__(self, sim: Simulator, delay: float):
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout: {delay}")
        self._sim = sim
        self._delay = delay

    def _subscribe(self, process: "Process") -> None:
        self._sim.call_after(self._delay, process._resume, None)


class Event(Awaitable):
    """A one-shot event that multiple processes may wait on.

    ``succeed(value)`` resumes all waiters with ``value``; ``fail(exc)``
    raises ``exc`` inside them.  Triggering twice is an error; waiting on an
    already-triggered event resumes immediately.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._waiters: List[Process] = []
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.ok = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = True
        self.value = value
        self._fire()
        return self

    def fail(self, error: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.ok = False
        self.error = error
        self._fire()
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when the event triggers (immediately if it has)."""
        if self.triggered:
            self._sim.call_after(0, fn, self)
        else:
            self._callbacks.append(fn)

    def _fire(self) -> None:
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for process in waiters:
            if self.ok:
                self._sim.call_after(0, process._resume, self.value)
            else:
                self._sim.call_after(0, process._throw, self.error)
        for fn in callbacks:
            self._sim.call_after(0, fn, self)

    def _subscribe(self, process: "Process") -> None:
        if self.triggered:
            if self.ok:
                self._sim.call_after(0, process._resume, self.value)
            else:
                self._sim.call_after(0, process._throw, self.error)
        else:
            self._waiters.append(process)


class Channel(Awaitable):
    """Unbounded FIFO channel.

    ``put`` never blocks; ``get`` returns an awaitable that yields the next
    item.  Yielding the channel itself is shorthand for ``yield ch.get()``.
    """

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            event = self._getters.popleft()
            if not event.triggered:
                event.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        event = self._sim.event()
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
        self.get()._subscribe(process)


class AllOf(Awaitable):
    """Awaitable that fires when every child event has triggered.

    The resumed value is the list of child values, in the order given.
    A failing child fails the composite with the same exception.
    """

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        self._sim = sim
        self._events = list(events)
        self._done = sim.event()
        self._remaining = len(self._events)
        if self._remaining == 0:
            self._done.succeed([])
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._done.triggered:
            return
        if not event.ok:
            self._done.fail(event.error)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._done.succeed([e.value for e in self._events])

    def _subscribe(self, process: "Process") -> None:
        self._done._subscribe(process)


class Process(Awaitable):
    """A running generator.  Also awaitable: waiting on it joins it."""

    def __init__(self, sim: Simulator, gen: Generator[Any, Any, Any], name: str):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.killed = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List[Process] = []
        self._join_callbacks: List[Callable[["Process"], None]] = []
        # Causal context: a trace id stamped on request-handling
        # processes so work running under them can be attributed.
        self.trace: Optional[str] = None
        sim.call_after(0, self._resume, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Stop the process dead: it never runs again.

        Used to model a machine crash; the process gets no chance to clean
        up, exactly like a killed OS process.  Joiners are *not* notified
        (on a crashed node they are dead too; cross-node observers must use
        timeouts or failure detection, as in a real distributed system).
        """
        if self.finished:
            return
        self.killed = True
        self.finished = True
        self._gen.close()

    def interrupt(self, reason: str = "") -> None:
        """Raise :class:`Interrupted` inside the process at its wait point."""
        if self.finished:
            return
        self._sim.call_after(0, self._throw, Interrupted(reason))

    def on_finish(self, fn: Callable[["Process"], None]) -> None:
        """Run ``fn(self)`` when the process finishes normally or with error."""
        if self.finished and not self.killed:
            self._sim.call_after(0, fn, self)
        else:
            self._join_callbacks.append(fn)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        self._sim._current = self
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - process body failed
            self._finish(None, exc)
            return
        finally:
            self._sim._current = None
        self._wait_on(yielded)

    def _throw(self, error: BaseException) -> None:
        if self.finished:
            return
        self._sim._current = self
        try:
            yielded = self._gen.throw(error)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001
            self._finish(None, exc)
            return
        finally:
            self._sim._current = None
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Awaitable):
            yielded._subscribe(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded a non-awaitable: {yielded!r}"
            )

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        self.finished = True
        self.value = value
        self.error = error
        joiners, self._joiners = self._joiners, []
        callbacks, self._join_callbacks = self._join_callbacks, []
        for joiner in joiners:
            if error is None:
                self._sim.call_after(0, joiner._resume, value)
            else:
                self._sim.call_after(0, joiner._throw, error)
        for fn in callbacks:
            self._sim.call_after(0, fn, self)
        if error is not None and not joiners and not callbacks:
            # Nobody is watching: surface the failure instead of losing it.
            raise error

    # ------------------------------------------------------------------
    # awaitable protocol (join)
    # ------------------------------------------------------------------
    def _subscribe(self, process: "Process") -> None:
        if self.killed:
            return  # joining a killed process waits forever, like a dead peer
        if self.finished:
            if self.error is None:
                self._sim.call_after(0, process._resume, self.value)
            else:
                self._sim.call_after(0, process._throw, self.error)
        else:
            self._joiners.append(process)

    def __repr__(self) -> str:
        state = "killed" if self.killed else ("done" if self.finished else "running")
        return f"<Process {self.name} {state}>"
