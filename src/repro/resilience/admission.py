"""Server-side admission control: bounded accept queue, CoDel-style
queue-delay target, and deadline-aware shedding.

The application server consults the controller at accept time, *before*
any CPU is charged -- refusing is the one thing an overloaded server
can still do cheaply.  Three independent checks:

* **dead on arrival**: the request's propagated client deadline has
  already passed, so nobody will read the answer; drop it without a
  response (the client's timeout already fired).
* **bounded queue**: more than ``queue_limit`` requests in the house
  means the newest arrival would wait longer than anyone benefits from;
  refuse with a distinct ``503 overloaded`` that the proxy does *not*
  silently redispatch.
* **CoDel**: a full queue is a symptom; a *standing* queue is the
  disease.  Track the delay each request actually waited before
  reaching the CPU; once that delay has stayed above ``target_s`` for
  ``interval_s``, start shedding arrivals -- but with CoDel's control
  law, not a brownout: drops are *spaced*, with the spacing shrinking
  as ``interval / sqrt(count)`` while the queue stays bad, and most
  arrivals still admitted (Nichols & Jacobson, CACM 2012 -- applied to
  a thread pool instead of a router buffer).  Spacing matters for
  liveness as much as fairness: shedding everything would starve the
  service pipeline, so no request would ever be observed waiting under
  target and the controller could never learn the queue had drained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

#: admit() outcomes
ADMIT = "admit"
SHED_DEAD = "dead"
SHED_QUEUE = "queue_full"
SHED_CODEL = "codel"


@dataclass(frozen=True)
class AdmissionParams:
    """Server admission configuration, used as is by every defended run.

    Seconds are load-domain: CoDel tracks queueing delay, like the
    client timeout, so no experiment scale compresses them."""

    queue_limit: int = 64
    codel_target_s: float = 0.25
    codel_interval_s: float = 1.0

    def __post_init__(self):
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.codel_target_s <= 0 or self.codel_interval_s <= 0:
            raise ValueError("CoDel target and interval must be positive")


class AdmissionController:
    """One controller per application server incarnation."""

    def __init__(self, clock: Callable[[], float],
                 params: Optional[AdmissionParams] = None):
        self._clock = clock
        self.params = params or AdmissionParams()
        self.inflight = 0          # admitted, not yet completed
        self._above_since: Optional[float] = None
        self._dropping = False     # in CoDel's dropping state
        self._drop_next = 0.0      # earliest time of the next spaced drop
        self._drop_count = 0       # drops this dropping episode
        self.admitted = 0
        self.shed_dead = 0
        self.shed_queue = 0
        self.shed_codel = 0

    # ------------------------------------------------------------------
    def _drop_spacing(self) -> float:
        return (self.params.codel_interval_s
                / math.sqrt(max(1, self._drop_count)))

    def admit(self, deadline: Optional[float] = None) -> str:
        """Judge one arrival; on :data:`ADMIT` the caller must pair it
        with :meth:`release` when the request completes."""
        now = self._clock()
        if deadline is not None and now >= deadline:
            self.shed_dead += 1
            return SHED_DEAD
        if self.inflight >= self.params.queue_limit:
            self.shed_queue += 1
            return SHED_QUEUE
        if not self._dropping:
            if (self._above_since is not None
                    and now - self._above_since
                    >= self.params.codel_interval_s):
                self._dropping = True
                self._drop_count = 0
        if self._dropping and now >= self._drop_next:
            self._drop_count += 1
            self._drop_next = now + self._drop_spacing()
            self.shed_codel += 1
            return SHED_CODEL
        self.inflight += 1
        self.admitted += 1
        return ADMIT

    def release(self) -> None:
        """An admitted request finished (served, failed, or dropped)."""
        self.inflight -= 1

    def on_service_start(self, waited_s: float) -> None:
        """A request reached the CPU after queueing ``waited_s``.

        Feeds the CoDel estimator: the *first* sample above target
        starts the clock; any sample back under target resets it and
        ends the dropping episode.
        """
        if waited_s < self.params.codel_target_s:
            self._above_since = None
            self._dropping = False
        elif self._above_since is None:
            self._above_since = self._clock()

    @property
    def shedding(self) -> bool:
        """Currently in the CoDel dropping state?"""
        return self._dropping
