"""The watchdog: automatic re-instantiation of crashed replicas.

Section 5.1: "Re-instantiation of application servers is carried out
automatically by a simple watchdog process that monitors the application
server and re-instantiates it as soon as it detects the crash."

The watchdog survives the application's death (in the paper it is a
separate OS process on a machine that stays up), so here it runs as a
simulator-level process rather than on the monitored node.  Restarts it
performs are *autonomous* -- they do not count against the autonomy
measure.  It can be disabled per replica to stage the delayed-recovery
faultload.

Crash-loop protection: a replica that reboots into corrupt state and
immediately re-crashes would otherwise be restarted at a fixed cadence
forever.  Consecutive restarts (no stable period in between) back off
exponentially up to a cap, and after ``max_restarts`` of them the
circuit breaker trips: the watchdog gives up, which *does* count as a
loss of autonomy -- a human has to look at the machine.  A node that
stays up for ``stable_after_s`` resets the backoff, so isolated crashes
spaced through a run see the same fixed ``restart_delay_s`` as before.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.core import Simulator
from repro.sim.node import Node
from repro.sim.trace import log_of


class Watchdog:
    """Monitors one node and reboots it after a short detection delay."""

    def __init__(self, sim: Simulator, node: Node,
                 poll_interval_s: float = 0.5,
                 restart_delay_s: float = 1.0,
                 enabled: bool = True,
                 backoff_factor: float = 2.0,
                 max_restart_delay_s: float = 30.0,
                 max_restarts: Optional[int] = 8,
                 stable_after_s: float = 10.0,
                 time_div: float = 1.0):
        self._sim = sim
        self.node = node
        # The durations are paper-timeline seconds, compressed by
        # ``time_div`` the way ExperimentScale.t compresses the timeline.
        self.poll_interval_s = poll_interval_s / time_div
        self.restart_delay_s = restart_delay_s / time_div
        self.enabled = enabled
        self.backoff_factor = backoff_factor
        self.max_restart_delay_s = max_restart_delay_s / time_div
        self.max_restarts = max_restarts
        self.stable_after_s = stable_after_s / time_div
        self.restarts: List[float] = []
        self.consecutive_restarts = 0
        self.tripped = False
        self._started = False
        self._events = log_of(sim)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("watchdog already running")
        self._started = True
        self._sim.spawn(self._loop(), name=f"watchdog-{self.node.name}")

    def next_delay_s(self) -> float:
        """The restart delay the current crash-loop streak has earned."""
        delay = (self.restart_delay_s
                 * self.backoff_factor ** self.consecutive_restarts)
        return min(delay, self.max_restart_delay_s)

    def _loop(self):
        while True:
            yield self._sim.timeout(self.poll_interval_s)
            if self.node.alive:
                # A stable stretch forgives the crash-loop streak.
                if (self.consecutive_restarts and self.restarts
                        and self._sim.now - self.restarts[-1]
                        >= self.stable_after_s):
                    self.consecutive_restarts = 0
                continue
            if not self.enabled or self.tripped:
                continue
            if (self.max_restarts is not None
                    and self.consecutive_restarts >= self.max_restarts):
                self.tripped = True
                if self._events is not None:
                    self._events.emit("watchdog.tripped", self.node.name,
                                      restarts=len(self.restarts))
                continue
            # Detection happened; model exec/startup latency, then boot.
            yield self._sim.timeout(self.next_delay_s())
            if self.enabled and not self.node.alive:
                self.node.reboot()
                self.restarts.append(self._sim.now)
                self.consecutive_restarts += 1
                if self._events is not None:
                    self._events.emit("watchdog.restart", self.node.name,
                                      restart=len(self.restarts),
                                      consecutive=self.consecutive_restarts)
