"""The watchdog: automatic re-instantiation of crashed replicas.

Section 5.1: "Re-instantiation of application servers is carried out
automatically by a simple watchdog process that monitors the application
server and re-instantiates it as soon as it detects the crash."

The watchdog survives the application's death (in the paper it is a
separate OS process on a machine that stays up), so here it runs as a
simulator-level process rather than on the monitored node.  Restarts it
performs are *autonomous* -- they do not count against the autonomy
measure.  Faults *hold* it: it restarts nothing while any hold remains.
A ``reboot``'s preparation takes a hold never released (the
delayed-recovery faultload's reboot is manual), and a datacenter outage
one until power returns -- so the end of an outage never revives a
replica whose reboot is a human's.

Crash-loop protection: a replica that reboots into corrupt state and
immediately re-crashes would otherwise be restarted at a fixed cadence
forever.  Consecutive restarts (no stable period in between) back off
exponentially up to a cap, and after :data:`MAX_RESTARTS` of them the
circuit breaker trips: the watchdog gives up, which *does* count as a
loss of autonomy -- a human has to look at the machine.  A node that
stays up for :data:`STABLE_AFTER_S` resets the backoff, so isolated
crashes spaced through a run see the same fixed
:data:`RESTART_DELAY_S` as before.
"""

from __future__ import annotations

from typing import List

from repro.sim.core import Simulator
from repro.sim.node import Node
from repro.sim.trace import log_of

# Paper-timeline seconds, compressed by a watchdog's ``time_div``: the
# poll period, the first restart's delay, the backoff factor and cap of
# a streak's later ones, the streak that trips the breaker, and the
# uptime that forgives a streak.
POLL_INTERVAL_S = 0.5
RESTART_DELAY_S = 1.0
BACKOFF_FACTOR = 2.0
MAX_RESTART_DELAY_S = 30.0
MAX_RESTARTS = 8
STABLE_AFTER_S = 10.0


class Watchdog:
    """Monitors one node and reboots it after a short detection delay,
    unless a fault holds it (``holds > 0``)."""

    def __init__(self, sim: Simulator, node: Node, time_div: float = 1.0):
        self._sim = sim
        self.node = node
        self.poll_interval_s = POLL_INTERVAL_S / time_div
        self.restart_delay_s = RESTART_DELAY_S / time_div
        self.max_restart_delay_s = MAX_RESTART_DELAY_S / time_div
        self.stable_after_s = STABLE_AFTER_S / time_div
        self.holds = 0
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
                 * BACKOFF_FACTOR ** self.consecutive_restarts)
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
            if self.holds or self.tripped:
                continue
            if self.consecutive_restarts >= MAX_RESTARTS:
                self.tripped = True
                if self._events is not None:
                    self._events.emit("watchdog.tripped", self.node.name,
                                      restarts=len(self.restarts))
                continue
            # Detection happened; model exec/startup latency, then boot.
            yield self._sim.timeout(self.next_delay_s())
            if not self.holds and not self.node.alive:
                self.node.reboot()
                self.restarts.append(self._sim.now)
                self.consecutive_restarts += 1
                if self._events is not None:
                    self._events.emit("watchdog.restart", self.node.name,
                                      restart=len(self.restarts),
                                      consecutive=self.consecutive_restarts)
