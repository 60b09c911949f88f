"""FIFO single-server queueing resource.

Models a CPU (or any serially shared device): requests are served one at a
time in arrival order, so response time = queueing delay + service time.
Saturation behaviour -- the knee in the paper's WIPS/WIRT curves -- emerges
from this queue.

The station is callback-driven rather than held by client processes, so a
client killed mid-service (node crash) cannot leak the resource: the station
simply keeps serving its queue, and :meth:`reset` empties it when the device
itself dies with the node.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.sim.core import Awaitable, Process, SimulationError, Simulator


class Grant(Awaitable):
    """One job on a :class:`ServiceStation`, done when its service ends.

    A process waits for it by yielding it (and is resumed with ``None``);
    other code registers ``add_callback(fn)`` for ``fn(grant)``.  At the
    completion the waiter's resume and then the callbacks are queued at
    that instant, in that order, as :meth:`Event.succeed` would queue
    them.  A grant never fails; ``triggered`` tells whether it is done.
    One process at a time may wait on it.
    """

    __slots__ = ("_sim", "service_time", "_waiter", "_callbacks",
                 "triggered")

    def __init__(self, sim: Simulator, service_time: float):
        self._sim = sim
        self.service_time = service_time
        self._waiter: Optional[Process] = None
        self._callbacks: Optional[List[Callable[["Grant"], None]]] = None
        self.triggered = False

    def add_callback(self, fn: Callable[["Grant"], None]) -> None:
        """Run ``fn(self)`` when the job completes (at once if it has)."""
        if self.triggered:
            self._sim._ready.append((fn, (self,)))
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def _subscribe(self, process: Process) -> None:
        if self.triggered:
            self._sim._ready.append((process._resume, (None,)))
        elif self._waiter is None:
            self._waiter = process
        else:
            raise SimulationError("a grant resumes one waiting process")


class ServiceStation:
    """Single server, FIFO discipline, explicit service times."""

    def __init__(self, sim: Simulator, name: str = "station",
                 speed: float = 1.0):
        if not speed > 0:  # also rejects NaN
            raise SimulationError(f"speed must be positive, got {speed}")
        self._sim = sim
        self.name = name
        self.speed = speed  # a job of cost c occupies the server c/speed
        # Two service classes model OS time-slicing: short middleware work
        # (priority 0: consensus messages, the state-machine applier) is
        # served before queued request threads (priority 1), without
        # preempting the job in service.  Under web-tier saturation this
        # keeps sub-millisecond protocol steps from waiting behind queues
        # of multi-millisecond page renders, as thread scheduling does on
        # a real server.
        self._queues: Tuple[Deque[Grant], ...] = (deque(), deque())
        self._busy = False
        self._epoch = 0
        self.total_busy_time = 0.0
        self.jobs_served = 0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._queues)

    def request(self, service_time: float, priority: int = 0) -> Grant:
        """Enqueue a job needing ``service_time``; the grant completes
        when it is done.

        ``priority`` 0 (default) is the middleware class; 1 is the bulk
        request class.  FIFO within each class.
        """
        if not service_time >= 0:  # also rejects NaN
            raise SimulationError(f"negative service time: {service_time}")
        grant = Grant(self._sim, service_time)
        if self._busy:
            self._queues[priority].append(grant)
        else:  # idle: nothing is queued either
            self._start(grant)
        return grant

    def reset(self) -> None:
        """Drop all queued and in-flight work (the device died).

        Pending grants never complete; their waiters are expected to be
        dead too (killed with the same node) or to use timeouts.
        """
        for queue in self._queues:
            queue.clear()
        self._busy = False
        self._epoch += 1

    # ------------------------------------------------------------------
    def _start(self, grant: Grant) -> None:
        self._busy = True
        occupancy = grant.service_time / self.speed
        self.total_busy_time += occupancy
        self._sim._later(occupancy, self._complete, (self._epoch, grant))

    def _complete(self, epoch: int, grant: Grant) -> None:
        if epoch != self._epoch:
            return  # station was reset while this job was in service
        self.jobs_served += 1
        grant.triggered = True
        ready = self._sim._ready
        waiter = grant._waiter
        if waiter is not None:
            ready.append((waiter._resume, (None,)))
        callbacks = grant._callbacks
        if callbacks is not None:
            for fn in callbacks:
                ready.append((fn, (grant,)))
        high, low = self._queues
        queue = high or low
        if queue:
            self._start(queue.popleft())
        else:
            self._busy = False
