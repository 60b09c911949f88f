"""The flight recorder: a bounded ring of the run's structured events.

The flight recorder is the black box of a run.  It subscribes to the
simulator's event log (:mod:`repro.sim.trace`) for the kinds in
:attr:`FlightRecorder.KINDS` -- every fault's injection and heal, when
it happens, proxy reroutes and evictions, Paxos elections and mode switches,
watchdog restarts, checkpoint and recovery milestones, 2PC outcomes,
SLO alerts -- and keeps them in a bounded ring buffer
(``collections.deque`` with ``maxlen``), so even a multi-hour run keeps
the *recent* causal history at a fixed memory cost.  When something
goes wrong (an SLO alert or a safety violation) the buffer is dumped as
JSONL and the incident post-mortem builder (:mod:`repro.obs.incident`)
correlates it with recovery forensics and SLO burn.

The ring never takes the per-command audit kinds (``paxos.decide``,
``paxos.deliver``, ``paxos.accept``, ``treplica.ack``), so incident
timelines hold failover stories, not the command stream.  Like every
subscriber it is passive: a recorded run is bit-for-bit identical to an
unrecorded one (parity-tested).

Usage::

    log = EventLog(sim)
    sim.event_log = log                # before components are built
    recorder = FlightRecorder(sim)
    log.subscribe(FlightRecorder.KINDS, recorder.take)

A recorder on its own also takes events directly:
``FlightRecorder(sim).record("probe.event", "node", k=1)``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterator, Optional

from repro.sim.trace import Event, Tracer

__all__ = [
    "FlightRecorder",
    "DEFAULT_CAPACITY",
]

#: Default ring capacity.  Sized so a tiny-scale crash run fits whole
#: while a paper-scale run still keeps minutes of history.
DEFAULT_CAPACITY = 65536


class FlightRecorder(Tracer):
    """A :class:`~repro.sim.trace.Tracer` whose retention is a ring.

    ``capacity`` bounds memory; once full, the oldest events are
    evicted in FIFO order (``recorded - len(events)`` have been lost,
    exposed as :attr:`evicted`).
    """

    #: The kinds the ring takes from the event log.
    KINDS = frozenset({
        "fault.inject", "fault.heal", "geo.placement",
        "watchdog.restart", "watchdog.tripped",
        "proxy.backend_down", "proxy.backend_up", "proxy.broken_connection",
        "proxy.no_backend", "proxy.dead_request", "proxy.shed",
        "proxy.redispatch_denied", "proxy.breaker_open",
        "proxy.breaker_half_open", "proxy.breaker_closed",
        "server.dead_request", "server.shed",
        "paxos.view_change", "paxos.elected", "checkpoint.taken",
        "recovery.checkpoint_loaded", "recovery.checkpoint_transferred",
        "recovery.caught_up", "recovery.ready", "recovery.scrub",
        "recovery.repaired_from_peer",
        "txn.decide", "txn.resolve", "slo.alert", "slo.alert_cleared",
    })

    def __init__(self, sim: Any, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.capacity = capacity
        self.events: "deque[Event]" = deque(maxlen=capacity)
        self.recorded = 0

    # ------------------------------------------------------------------
    @property
    def evicted(self) -> int:
        """How many events the ring has dropped (oldest-first)."""
        return self.recorded - len(self.events)

    def take(self, event: Event) -> None:
        """Append one event from the log."""
        self.recorded += 1
        self.events.append(event)

    def record(self, kind: str, node: Optional[str] = None,
               **fields: Any) -> Event:
        """Append one event stamped at ``sim.now``, numbered by this ring."""
        event = Event(self._sim.now, kind, node,
                      tuple(sorted(fields.items())), self.recorded)
        self.take(event)
        return event

    # ------------------------------------------------------------------
    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        for event in self.events:
            yield event.to_dict()

    def to_jsonl(self) -> str:
        """The retained ring as JSONL, oldest first, deterministic."""
        return "\n".join(
            json.dumps(payload, sort_keys=True)
            for payload in self.iter_dicts())

    def dump(self, path: str) -> int:
        """Write the ring as JSONL to ``path``; returns events written."""
        lines = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if lines:
                handle.write(lines + "\n")
        return len(self.events)
