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
from typing import Deque, Optional, Tuple

from repro.sim.core import Event, SimulationError, Simulator


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
        self._queues: Tuple[Deque[Tuple[float, Event]], ...] = (deque(), deque())
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

    def request(self, service_time: float, priority: int = 0) -> Event:
        """Enqueue a job needing ``service_time``; the event fires when done.

        ``priority`` 0 (default) is the middleware class; 1 is the bulk
        request class.  FIFO within each class.
        """
        if not service_time >= 0:  # also rejects NaN
            raise SimulationError(f"negative service time: {service_time}")
        done = Event(self._sim)
        self._queues[priority].append((service_time, done))
        if not self._busy:
            self._serve_next()
        return done

    def reset(self) -> None:
        """Drop all queued and in-flight work (the device died).

        Pending completion events never fire; their waiters are expected to
        be dead too (killed with the same node) or to use timeouts.
        """
        for queue in self._queues:
            queue.clear()
        self._busy = False
        self._epoch += 1

    # ------------------------------------------------------------------
    def _serve_next(self) -> None:
        high, low = self._queues
        queue = high or low
        if not queue:
            self._busy = False
            return
        self._busy = True
        service_time, done = queue.popleft()
        epoch = self._epoch
        occupancy = service_time / self.speed
        self.total_busy_time += occupancy
        self._sim.call_after(occupancy, self._complete, epoch, done)

    def _complete(self, epoch: int, done: Event) -> None:
        if epoch != self._epoch:
            return  # station was reset while this job was in service
        self.jobs_served += 1
        if not done.triggered:
            done.succeed(None)
        self._serve_next()
