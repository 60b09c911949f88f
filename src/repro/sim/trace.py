"""The event log: one structured emit point per happening.

Each happening in a run is emitted once, where it happens, as one
:class:`Event` on the simulator's :class:`EventLog`.  A discrete
happening (a crash, an election, a consensus decision) has a dotted
``layer.event`` kind; an interval (a message hop, a disk operation, an
interaction) is emitted when it ends and carries its beginning in a
``start`` field, so the event's ``time`` is its end.  Observers
subscribe to the kinds they keep, each with its own retention (the
safety audit's bounded :class:`Tracer`, the flight recorder's ring, the
span tracer's spans and recovery milestones); DESIGN.md section 13
tabulates every kind, its emitting layer and its subscribers.  Sites
capture the log when they are built and test it once per emit, so an
unobserved run builds no keyword dictionaries; emitting reads only
``sim.now``, so an observed run is bit-for-bit identical to an
unobserved one::

    sim.event_log = log = EventLog(sim)   # before components are built
    audit = Tracer()
    log.subscribe(("node.crash", "node.restart"), audit.take)

    # at a site:
    self._events = log_of(sim)            # None when nothing observes
    if self._events is not None:
        self._events.emit("node.crash", self.name, incarnation=n)

    # at a per-message site, an interval:
    self._hops = log_for(sim, "net")      # None unless "net" is taken
    start = sim.now                       # ... and when the hop lands:
    if self._hops is not None:
        self._hops.emit("net", "a->b", start=start, trace=trace)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Event:
    """One happening.  ``fields`` is a sorted tuple of ``(key, value)``
    pairs, so equal payloads compare and serialize identically; ``seq``
    numbers the events a log (or a standalone recorder) has stamped.
    An interval's ``start`` is one of its fields."""

    __slots__ = ("time", "kind", "node", "fields", "seq")

    def __init__(self, time: float, kind: str, node: Optional[str],
                 fields: Tuple[Tuple[str, Any], ...], seq: int) -> None:
        self.time = time
        self.kind = kind
        self.node = node
        self.fields = fields
        self.seq = seq

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Event) and (
            (self.time, self.kind, self.node, self.fields, self.seq)
            == (other.time, other.kind, other.node, other.fields, other.seq))

    def __getitem__(self, key: str) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "t": round(self.time, 9),
            "kind": self.kind,
            "seq": self.seq,
        }
        if self.node is not None:
            payload["node"] = self.node
        for name, value in self.fields:
            payload[name] = value
        return payload

    def __repr__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.time:10.4f}] {self.kind:<24} {self.node}: {details}"


class EventLog:
    """Routes each emitted event to the subscribers of its kind; an event
    no subscriber takes is never built and consumes no ``seq``."""

    def __init__(self, sim) -> None:
        self._sim = sim
        self._takers: Dict[str, List[Callable[[Event], None]]] = {}
        self.emitted = 0

    def subscribe(self, kinds: Iterable[str],
                  take: Callable[[Event], None]) -> None:
        """Call ``take(event)`` for every event of one of ``kinds``."""
        for kind in kinds:
            self._takers.setdefault(kind, []).append(take)

    def emit(self, kind: str, node: Optional[str], **fields: Any) -> None:
        takers = self._takers.get(kind)
        if takers is None:
            return
        event = Event(self._sim.now, kind, node,
                      tuple(sorted(fields.items())), self.emitted)
        self.emitted += 1
        for take in takers:
            take(event)


def log_of(sim) -> Optional[EventLog]:
    """The simulator's event log, or ``None`` when nothing observes."""
    return getattr(sim, "event_log", None)


def log_for(sim, kind: str) -> Optional[EventLog]:
    """The simulator's event log when some subscriber takes ``kind``,
    else ``None``.  Per-message and per-op sites capture this once when
    built, so a run observed for other kinds pays them no call at all."""
    log = log_of(sim)
    return log if log is not None and kind in log._takers else None


class Tracer:
    """A subscriber keeping the events it takes in a bounded list; past
    ``max_events`` it counts what it lost in :attr:`dropped`."""

    def __init__(self, max_events: int = 1_000_000):
        self._max_events = max_events
        self.events: List[Event] = []
        self.dropped = 0

    def take(self, event: Event) -> None:
        if len(self.events) >= self._max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def select(self, *kinds: str, node: Optional[str] = None,
               start: Optional[float] = None,
               end: Optional[float] = None) -> List[Event]:
        """Kept events of any of ``kinds`` (all when none) on ``node``
        within ``[start, end]``, in order."""
        return [event for event in self.events
                if (not kinds or event.kind in kinds)
                and (node is None or event.node == node)
                and (start is None or event.time >= start)
                and (end is None or event.time <= end)]

    def counts(self) -> Dict[str, int]:
        """Kept event count per kind."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals
