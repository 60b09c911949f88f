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
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.sim.core import SimulationError, Simulator
from repro.sim.rng import SeedTree
from repro.sim.trace import emit as trace_emit


@dataclass(frozen=True)
class NetworkParams:
    """Latency/bandwidth calibration for the simulated switch."""

    base_latency_s: float = 0.00015
    bandwidth_mb_s: float = 110.0
    jitter_mean_s: float = 0.00005


@dataclass
class Message:
    """One network datagram (kept for tracing and tests)."""

    src: str
    dst: str
    port: str
    payload: Any
    size_mb: float
    sent_at: float = 0.0
    # Open hop span piggybacked on the datagram when span tracing is on;
    # shared by duplicate copies (the first delivery closes it).
    span: Any = None
    # Scheduled delivery copies still outstanding; when it reaches zero the
    # object may be recycled through the network's freelist (untraced runs
    # only -- traced messages carry a live span and are never pooled).
    _copies: int = 1


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
        self._rng = (seed or SeedTree(0)).fork_random("nemesis")
        self.windows: List[NemesisWindow] = []
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    # ------------------------------------------------------------------
    def add_window(self, window: NemesisWindow) -> None:
        self.windows.append(window)

    def schedule(self, start: float, end: float = math.inf,
                 params: Optional[NemesisParams] = None,
                 pairs=None, **param_kwargs) -> NemesisWindow:
        """Convenience: build and register a window.

        Either pass a ready :class:`NemesisParams` or its fields as
        keyword arguments (``drop_p=0.2`` etc.).  ``pairs`` accepts any
        iterable of directed name pairs.
        """
        if params is None:
            params = NemesisParams(**param_kwargs)
        elif param_kwargs:
            raise ValueError("pass params or keyword intensities, not both")
        window = NemesisWindow(
            start, end, params,
            pairs=None if pairs is None else frozenset(pairs))
        self.add_window(window)
        return window

    def clear(self) -> None:
        self.windows.clear()

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
                trace_emit(self._sim, "nemesis", f"{src}->{dst}",
                           event="dropped", port=port)
                return []
            if params.duplicate_p and self._rng.random() < params.duplicate_p:
                copies += 1
                self.duplicated += 1
                trace_emit(self._sim, "nemesis", f"{src}->{dst}",
                           event="duplicated", port=port)
            if params.delay_p and self._rng.random() < params.delay_p:
                spike = self._rng.expovariate(1.0 / params.delay_mean_s)
                extra += spike
                self.delayed += 1
                trace_emit(self._sim, "nemesis", f"{src}->{dst}",
                           event="delayed", port=port, extra_s=round(spike, 6))
        return [extra] * copies


class Network:
    """The switch: knows every node, delivers datagrams with delay."""

    def __init__(self, sim: Simulator, params: Optional[NetworkParams] = None,
                 seed: Optional[SeedTree] = None,
                 nemesis: Optional[Nemesis] = None):
        self._sim = sim
        self.params = params or NetworkParams()
        self._spans = getattr(sim, "spans", None)
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
        self.wan_messages_sent = 0
        self.wan_mb_sent = 0.0
        # Scheduled-but-not-yet-delivered traffic (per delivery copy);
        # observability gauges read these to chart switch congestion.
        self.inflight_messages = 0
        self.inflight_mb = 0.0
        # Freelist of delivered Message shells.  Allocation of a datagram
        # object per send is one of the kernel's hottest allocation sites;
        # recycling keeps the steady-state rate near zero.
        self._pool: List[Message] = []

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
        if dst not in self._nodes:
            raise SimulationError(f"unknown destination node: {dst}")
        tracer = self._spans
        if (src, dst) in self._blocked:
            if tracer is not None:
                tracer.instant("net", f"{src}->{dst}", trace=trace,
                               port=port, cause="partition")
            return
        fates = [0.0]
        if self.nemesis is not None:
            fates = self.nemesis.fate(self._sim.now, src, dst, port)
        self.messages_sent += 1
        self.mb_sent += size_mb
        if not fates:
            if tracer is not None:
                tracer.instant("net", f"{src}->{dst}", trace=trace,
                               port=port, cause="dropped")
            return  # eaten by the nemesis
        target = self._nodes[dst]
        incarnation = target.incarnation
        if tracer is None and self._pool:
            message = self._pool.pop()
            message.src = src
            message.dst = dst
            message.port = port
            message.payload = payload
            message.size_mb = size_mb
            message.sent_at = self._sim.now
        else:
            message = Message(src, dst, port, payload, size_mb,
                              sent_at=self._sim.now)
        if self.geo is None:
            wan = False
            latency = self.params.base_latency_s
            transmit_s = size_mb / self.params.bandwidth_mb_s
            jitter_mean_s = self.params.jitter_mean_s
        else:
            link, wan, factor = self.geo.link_for(self._sim.now, src, dst)
            latency = link.latency_s * factor
            transmit_s = size_mb / link.bandwidth_mb_s
            jitter_mean_s = link.jitter_mean_s
            if wan:
                self.wan_messages_sent += 1
                self.wan_mb_sent += size_mb
                self.geo.wan_messages += 1
                self.geo.wan_mb += size_mb
        if tracer is not None:
            if wan:
                message.span = tracer.begin("net", f"{src}->{dst}",
                                            trace=trace, port=port, wan=True)
            else:
                message.span = tracer.begin("net", f"{src}->{dst}",
                                            trace=trace, port=port)
        message._copies = len(fates)
        for extra_delay in fates:
            delay = (latency + transmit_s
                     + self._rng.expovariate(1.0 / jitter_mean_s)
                     + extra_delay)
            self.inflight_messages += 1
            self.inflight_mb += size_mb
            self._sim.call_after(delay, self._deliver, message, incarnation)

    def _deliver(self, message: Message, incarnation: int) -> None:
        self.inflight_messages -= 1
        self.inflight_mb -= message.size_mb
        span = message.span
        target = self._nodes.get(message.dst)
        if target is None or not target.alive:
            if span is not None:
                self._spans.finish(span, cause="dest_down")
            self._release(message)
            return
        if target.incarnation != incarnation:
            if span is not None:
                self._spans.finish(span, cause="stale_incarnation")
            self._release(message)
            return  # node restarted while the message was in flight
        if (message.src, message.dst) in self._blocked:
            if span is not None:
                self._spans.finish(span, cause="partition")
            self._release(message)
            return
        self.messages_delivered += 1
        if span is not None:
            self._spans.finish(span)
        # Extract before releasing: dispatch may synchronously send new
        # datagrams that reuse this very shell from the pool.
        port, payload, src = message.port, message.payload, message.src
        self._release(message)
        target.dispatch(port, payload, src)

    def _release(self, message: Message) -> None:
        """Return a fully-delivered, untraced datagram shell to the pool."""
        message._copies -= 1
        if message._copies == 0 and message.span is None:
            message.payload = None
            if len(self._pool) < 512:
                self._pool.append(message)
