"""Cluster interconnect: unicast messages with latency and bandwidth costs.

Models the paper's single 1 Gbps Ethernet switch.  A message from A to B
arrives after ``base_latency + size/bandwidth + jitter``.  Messages to a
crashed node are silently dropped (UDP semantics; TCP-level connection
breakage is modelled where it matters, at the reverse proxy, via node crash
listeners).  Messages addressed to a node that crashed and restarted while
they were in flight are also dropped -- the old connection is gone.

Partitions can be injected for tests via :meth:`Network.block` /
:meth:`Network.unblock` (symmetric) and :meth:`Network.block_oneway` /
:meth:`Network.unblock_oneway` (asymmetric: only the ``src -> dst``
direction is cut, modelling one-way link loss).

Beyond partitions, a :class:`Nemesis` can be attached to the switch to
misbehave probabilistically: seed-deterministic message **drop**,
**duplication**, and **delay spikes** (which reorder), configurable per
directed node-pair and per time window.  The nemesis is the message-level
adversary the consensus safety checker (:mod:`repro.faults.checker`)
validates the replication stack against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from repro.sim.core import SimulationError, Simulator
from repro.sim.rng import SeedTree
from repro.sim.trace import log_for, log_of


@dataclass(frozen=True)
class NetworkParams:
    """Latency/bandwidth calibration for the simulated switch."""

    base_latency_s: float = 0.00015
    bandwidth_mb_s: float = 110.0
    jitter_mean_s: float = 0.00005


# ======================================================================
# nemesis: the probabilistic message-level adversary
# ======================================================================
@dataclass(frozen=True)
class NemesisParams:
    """Misbehaviour intensities for one nemesis window.

    Each datagram matched by the window independently suffers:

    * **drop** with probability ``drop_p`` (it never arrives);
    * **duplication** with probability ``duplicate_p`` (a second copy is
      delivered after its own latency draw);
    * a **delay spike** with probability ``delay_p``: an extra
      exponential delay of mean ``delay_mean_s`` is added, which reorders
      the message behind traffic sent after it.
    """

    drop_p: float = 0.0
    duplicate_p: float = 0.0
    delay_p: float = 0.0
    delay_mean_s: float = 0.02

    def __post_init__(self):
        for name in ("drop_p", "duplicate_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p!r}")
        if self.delay_mean_s <= 0.0:
            raise ValueError(f"delay_mean_s must be positive, "
                             f"got {self.delay_mean_s!r}")

    @property
    def is_noop(self) -> bool:
        return (self.drop_p == 0.0 and self.duplicate_p == 0.0
                and self.delay_p == 0.0)


@dataclass(frozen=True)
class NemesisWindow:
    """One scheduled stretch of misbehaviour.

    ``pairs`` is a frozenset of *directed* ``(src, dst)`` name pairs the
    window applies to, or ``None`` for all traffic.  ``end`` may be
    ``math.inf`` for an open-ended window.
    """

    start: float
    end: float
    params: NemesisParams
    pairs: Optional[FrozenSet[Tuple[str, str]]] = None

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(
                f"window ends ({self.end}) before it starts ({self.start})")

    def matches(self, now: float, src: str, dst: str) -> bool:
        if not self.start <= now < self.end:
            return False
        return self.pairs is None or (src, dst) in self.pairs


class Nemesis:
    """Seed-deterministic message adversary attached to a :class:`Network`.

    Windows are consulted at *send* time; every active window rolls its
    dice independently (drops compose, extra delays add up).  All draws
    come from one named stream of the experiment seed, so a run is
    bit-for-bit reproducible from ``(seed, schedule)``.
    """

    def __init__(self, sim: Simulator, seed: Optional[SeedTree] = None):
        self._sim = sim
        self._events = log_of(sim)
        self._rng = (seed or SeedTree(0)).fork_random("nemesis")
        self.windows: List[NemesisWindow] = []
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    # ------------------------------------------------------------------
    def add_window(self, window: NemesisWindow) -> None:
        self.windows.append(window)

    @property
    def counters(self) -> Dict[str, int]:
        return {"dropped": self.dropped, "duplicated": self.duplicated,
                "delayed": self.delayed}

    # ------------------------------------------------------------------
    def fate(self, now: float, src: str, dst: str, port: str) -> List[float]:
        """Decide a datagram's fate: a list of extra delays, one entry per
        copy to deliver.  ``[]`` means the message is dropped; ``[0.0]``
        is an unmolested delivery; ``[0.0, 0.0]`` a duplication."""
        if not self.windows:
            return [0.0]
        active = [w for w in self.windows if w.matches(now, src, dst)]
        if not active:
            return [0.0]
        copies = 1
        extra = 0.0
        for window in active:
            params = window.params
            if params.drop_p and self._rng.random() < params.drop_p:
                self.dropped += 1
                if self._events is not None:
                    self._events.emit("nemesis.dropped", f"{src}->{dst}",
                                      port=port)
                return []
            if params.duplicate_p and self._rng.random() < params.duplicate_p:
                copies += 1
                self.duplicated += 1
                if self._events is not None:
                    self._events.emit("nemesis.duplicated", f"{src}->{dst}",
                                      port=port)
            if params.delay_p and self._rng.random() < params.delay_p:
                spike = self._rng.expovariate(1.0 / params.delay_mean_s)
                extra += spike
                self.delayed += 1
                if self._events is not None:
                    self._events.emit("nemesis.delayed", f"{src}->{dst}",
                                      port=port, extra_s=round(spike, 6))
        return [extra] * copies


class Network:
    """The switch: knows every node, delivers datagrams with delay."""

    def __init__(self, sim: Simulator, params: Optional[NetworkParams] = None,
                 seed: Optional[SeedTree] = None,
                 nemesis: Optional[Nemesis] = None):
        self._sim = sim
        self.params = params or NetworkParams()
        self._hops = log_for(sim, "net")
        self._rng = (seed or SeedTree(0)).fork_random("network-jitter")
        self._nodes: Dict[str, Any] = {}
        self._blocked: Set[Tuple[str, str]] = set()
        self.nemesis = nemesis
        # Optional geo-replication delay model (repro.geo.GeoDelayModel):
        # when attached, per-message latency/bandwidth/jitter come from
        # the DC-to-DC link matrix instead of the flat switch params.
        self.geo = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.mb_sent = 0.0
        # Scheduled-but-not-yet-delivered traffic (per delivery copy);
        # observability gauges read these to chart switch congestion.
        self.inflight_messages = 0
        self.inflight_mb = 0.0

    # ------------------------------------------------------------------
    def register(self, node: Any) -> None:
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node name: {node.name}")
        self._nodes[node.name] = node

    def node(self, name: str) -> Any:
        return self._nodes[name]

    def node_names(self):
        return list(self._nodes)

    def set_geo(self, model: Any) -> None:
        """Attach a geo delay model; pass ``None`` to restore the flat
        single-switch calibration."""
        self.geo = model

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def block(self, a: str, b: str) -> None:
        """Drop all traffic between ``a`` and ``b`` (both directions)."""
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def unblock(self, a: str, b: str) -> None:
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def block_oneway(self, src: str, dst: str) -> None:
        """Asymmetric loss: drop only the ``src -> dst`` direction.

        ``dst`` can still reach ``src`` -- the classic asymmetric-link
        failure that crash-only faultloads never exercise.  Messages
        already in flight are dropped at delivery time."""
        self._blocked.add((src, dst))

    def unblock_oneway(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))

    def is_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked

    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, port: str, payload: Any,
             size_mb: float = 0.0005, trace: Optional[str] = None) -> None:
        """Fire-and-forget datagram; delivery is scheduled, never guaranteed."""
        self.multicast(src, (dst,), port, payload, size_mb, trace)

    def multicast(self, src: str, dsts: Iterable[str], port: str,
                  payload: Any, size_mb: float = 0.0005,
                  trace: Optional[str] = None) -> None:
        """Send one datagram from ``src`` to each of ``dsts``, in order.

        Each destination is one :meth:`send`: its own partition check,
        nemesis fate, link and hop span, then one jitter draw per delivery
        copy.  What does not depend on the destination is looked up once.
        No datagram object is built: each delivery copy is one plain
        kernel entry, a ``_deliver`` call carrying the fields it needs.
        """
        nodes, blocked, hops = self._nodes, self._blocked, self._hops
        nemesis, geo = self.nemesis, self.geo
        if nemesis is not None and not nemesis.windows:
            nemesis = None  # fate() draws nothing without windows
        now = self._sim.now
        later, deliver = self._sim._later, self._deliver
        random, log = self._rng.random, math.log
        if geo is None:
            params = self.params
            latency = params.base_latency_s
            transmit_s = size_mb / params.bandwidth_mb_s
            lambd = 1.0 / params.jitter_mean_s
        for dst in dsts:
            target = nodes.get(dst)
            if target is None:
                raise SimulationError(f"unknown destination node: {dst}")
            if blocked and (src, dst) in blocked:
                if hops is not None:
                    self._hop(src, dst, port, trace, now, "partition")
                continue
            fates = (0.0,)  # one copy, no extra delay
            if nemesis is not None:
                fates = nemesis.fate(now, src, dst, port)
            self.messages_sent += 1
            self.mb_sent += size_mb
            if not fates:
                if hops is not None:
                    self._hop(src, dst, port, trace, now, "dropped")
                continue  # eaten by the nemesis
            if geo is not None:
                link, wan, factor = geo.link_for(now, src, dst)
                latency = link.latency_s * factor
                transmit_s = size_mb / link.bandwidth_mb_s
                lambd = 1.0 / link.jitter_mean_s
                if wan:
                    geo.wan_messages += 1
                    geo.wan_mb += size_mb
            incarnation = target.incarnation
            start = now if hops is not None else None
            # A traced hop is one span however many copies the nemesis
            # makes, so duplicates wait until every copy has its delay.
            copies = [] if start is not None and len(fates) > 1 else None
            for extra_delay in fates:
                # random.expovariate(lambd)'s own formula: the same draw
                # and the same arithmetic, without the method call.
                delay = (latency + transmit_s + -log(1.0 - random()) / lambd
                         + extra_delay)
                self.inflight_messages += 1
                self.inflight_mb += size_mb
                if copies is None:
                    later(delay, deliver, (target, incarnation, src, port,
                                           payload, size_mb, trace, start))
                else:
                    copies.append(delay)
            if copies:
                # Only the copy due first (equal due times run in
                # scheduling order) carries the start, and closes the hop.
                dues = [now + delay for delay in copies]
                closer = dues.index(min(dues))
                for copy, delay in enumerate(copies):
                    later(delay, deliver, (target, incarnation, src, port,
                                           payload, size_mb, trace,
                                           start if copy == closer else None))

    def _deliver(self, target: Any, incarnation: int, src: str, port: str,
                 payload: Any, size_mb: float, trace: Optional[str],
                 start: Optional[float]) -> None:
        self.inflight_messages -= 1
        self.inflight_mb -= size_mb
        if not target.alive:
            cause = "dest_down"
        elif target.incarnation != incarnation:
            cause = "stale_incarnation"  # restarted while in flight
        elif self._blocked and (src, target.name) in self._blocked:
            cause = "partition"
        else:
            self.messages_delivered += 1
            if start is not None:
                self._hop(src, target.name, port, trace, start, None)
            handler = target._handlers.get(port)
            if handler is not None:
                handler(payload, src)
            return
        if start is not None:
            self._hop(src, target.name, port, trace, start, cause)

    def _hop(self, src: str, dst: str, port: str, trace: Optional[str],
             start: float, cause: Optional[str]) -> None:
        """Emit one ``net`` span: ``cause`` names why the datagram never
        reached its handler (a send-time loss ends where it starts)."""
        fields: Dict[str, Any] = {}
        if cause is not None:
            fields["cause"] = cause
        geo = self.geo
        if geo is not None and geo.dc(src) != geo.dc(dst):
            fields["wan"] = True  # the test GeoDelayModel.link_for makes
        self._hops.emit("net", f"{src}->{dst}", start=start, trace=trace,
                        port=port, **fields)
