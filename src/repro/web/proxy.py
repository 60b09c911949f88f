"""The reverse proxy: HAProxy's failover and balancing roles.

From Section 5.1 of the paper:

* it actively probes every server replica over HTTP and removes a replica
  from its server list after **4 unsuccessful tries**, re-adding it once
  it is probed active again;
* requests are balanced with a **hash on the unique client identifier**
  carried by every interaction;
* if a server fails *during* a request, the proxy closes the connection
  and **the client observes an error** -- this, plus requests racing the
  probe window, is the entire error budget behind the paper's accuracy
  tables.

Connection-refused outcomes (server process reachable but not serving,
e.g. still recovering) are silently redispatched to another live backend,
matching HAProxy's ``option redispatch``.  Every redispatch attempt --
dead backend or refused connection -- re-enters the proxy's work queue
and is charged ``cpu_request_s`` like a fresh forward, so a redispatch
storm shows up in the proxy's own queueing station instead of being
free.

The overload defenses (repro.resilience) are all off by default and
cost nothing when off:

* **per-backend circuit breakers** (closed/open/half-open, transitions
  emitted as ``proxy.breaker_*`` events) short-circuit a failing backend ahead
  of the probe cycle;
* an **AIMD concurrency limit** on observed backend latency sheds
  excess in-flight work with a fast local ``503 overloaded``;
* a **redispatch budget** (token bucket earned by first-try forwards)
  bounds the volume of redispatching the proxy may amplify;
* requests whose propagated client **deadline** already passed are
  dropped instead of forwarded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import registry_of
from repro.resilience.breaker import AdaptiveLimit, CircuitBreaker
from repro.resilience.retry import RetryBudget
from repro.sim.node import Node
from repro.sim.trace import log_of
from repro.web.http import REQUEST_SIZE_MB, Request, Response
from repro.web.server import HTTP_PORT, PROBE_PORT, PROBE_REPLY_PORT

CLIENT_IN_PORT = "http-in"
PROXY_RESP_PORT = "proxy-resp"


@dataclass(frozen=True)
class ProxyParams:
    """HAProxy-equivalent configuration (inter/fall/rise and redispatch)."""

    probe_interval_s: float = 2.0
    probe_timeout_s: float = 0.5
    fall: int = 4   # paper: removed after 4 unsuccessful tries
    rise: int = 2
    max_dispatch_attempts: int = 4
    # CPU charged on the proxy node per forwarded request and per relayed
    # response.  The single proxy machine is a shared resource (Figure 2);
    # at high replica counts it becomes the soft ceiling that flattens the
    # browsing/shopping speedup curves in Figure 3.
    cpu_request_s: float = 0.00022
    cpu_response_s: float = 0.00011
    # -- overload defenses (repro.resilience); all inert by default -----
    breaker_enabled: bool = False
    breaker_fall: int = 5          # consecutive request failures to open
    breaker_open_s: float = 2.0    # cool-off before half-open
    breaker_probes: int = 1        # trial requests admitted half-open
    aimd_enabled: bool = False
    aimd_target_s: float = 1.0     # latency above this halves the limit
    aimd_initial: float = 64.0
    aimd_min: float = 4.0
    aimd_max: float = 512.0
    # Token-earn ratio bounding redispatch volume; None keeps the
    # historical behaviour (bounded per request only, unbudgeted in
    # aggregate).
    redispatch_budget: Optional[float] = None
    redispatch_burst: float = 20.0
    # Drop requests whose propagated client deadline already passed.
    shed_dead: bool = False


class ReverseProxy:
    """One proxy node fronting all server replicas."""

    def __init__(self, node: Node, backends: List[str],
                 params: Optional[ProxyParams] = None):
        self.node = node
        self.backends = list(backends)
        self.params = params or ProxyParams()
        self.active: List[str] = list(backends)  # sorted; all start active
        self._fail_counts: Dict[str, int] = {b: 0 for b in backends}
        self._rise_counts: Dict[str, int] = {b: 0 for b in backends}
        self._probe_pending: Dict[int, str] = {}
        self._probe_seq = itertools.count()
        # pxid -> (request, backend, attempt, dispatched_at)
        self._inflight: Dict[str, Tuple[Request, str, int, float]] = {}
        self._px_seq = itertools.count()
        self.stats = {"forwarded": 0, "redispatched": 0,
                      "broken_connections": 0, "no_backend": 0,
                      "removals": 0, "readds": 0,
                      "shed": 0, "dead_dropped": 0,
                      "breaker_short_circuits": 0, "redispatch_denied": 0}
        self._spans = getattr(node.sim, "spans", None)
        self._events = log_of(node.sim)
        registry_of(node.sim).register_counts(self.stats, {
            "web.proxy_forwarded": "forwarded",
            "web.proxy_reroutes": "redispatched",
            "web.proxy_broken_connections": "broken_connections",
            "web.proxy_no_backend": "no_backend",
            "web.proxy_backend_removals": "removals",
            "web.proxy_shed": ("shed", "dead_dropped", "redispatch_denied"),
        })
        params = self.params
        self._breakers: Optional[Dict[str, CircuitBreaker]] = None
        if params.breaker_enabled:
            self._breakers = {b: self._make_breaker(b) for b in backends}
        self._limit: Optional[AdaptiveLimit] = None
        if params.aimd_enabled:
            self._limit = AdaptiveLimit(
                lambda: self.node.sim.now,
                target_s=params.aimd_target_s, initial=params.aimd_initial,
                min_limit=params.aimd_min, max_limit=params.aimd_max)
        self._redispatch_budget: Optional[RetryBudget] = None
        if params.redispatch_budget is not None:
            self._redispatch_budget = RetryBudget(
                params.redispatch_budget, burst=params.redispatch_burst)
        # Geo runs (repro.geo): backend -> the stats keys of its DC's
        # ok/WIRT counts (``geo.<dc>.*``), attributing each completed
        # interaction to the DC that served it.  None on non-geo
        # deployments (zero-cost check).
        self._geo_keys: Optional[Dict[str, Tuple[str, str]]] = None

    def _make_breaker(self, backend: str) -> CircuitBreaker:
        def on_transition(old: str, new: str) -> None:
            if self._events is not None:
                self._events.emit(f"proxy.breaker_{new}", self.node.name,
                                  backend=backend, prev=old)
        params = self.params
        return CircuitBreaker(lambda: self.node.sim.now,
                              fall=params.breaker_fall,
                              open_s=params.breaker_open_s,
                              probes=params.breaker_probes,
                              listener=on_transition)

    def breaker_trip_count(self) -> int:
        if self._breakers is None:
            return 0
        return sum(b.trips for b in self._breakers.values())

    def set_backend_dcs(self, dc_of: Dict[str, str]) -> None:
        """Attach the backend-to-datacenter map (geo deployments); the
        per-DC ``geo.<dc>.interactions_ok`` / ``geo.<dc>.wirt_sum_s``
        counters feed the aggregate report's per-DC breakdown."""
        self._geo_keys = {
            backend: (f"geo.{dc}.interactions_ok", f"geo.{dc}.wirt_sum_s")
            for backend, dc in dc_of.items()}
        names = sorted({key for keys in self._geo_keys.values()
                        for key in keys})
        self.stats.update(dict.fromkeys(names, 0))
        registry_of(self.node.sim).register_counts(
            self.stats, {name: name for name in names})

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._work = self.node.sim.channel()
        self.node.handle(CLIENT_IN_PORT, self._accept_request)
        self.node.handle(PROXY_RESP_PORT, self._accept_response)
        self.node.handle(PROBE_REPLY_PORT, self._on_probe_reply)
        self.node.spawn(self._worker(), name="proxy-worker")
        self.node.spawn(self._probe_loop(), name="proxy-probe")
        for backend in self.backends:
            self.node.network.node(backend).add_crash_listener(
                self._on_backend_crash)

    def _accept_request(self, payload, src: str) -> None:
        span = None
        if self._spans is not None:
            span = self._spans.begin("proxy.queue", self.node.name,
                                     trace=payload.trace, dir="req")
        self._work.put(("req", payload, src, span))

    def _accept_response(self, payload, src: str) -> None:
        span = None
        if self._spans is not None:
            entry = self._inflight.get(payload.req_id)
            trace = entry[0].trace if entry is not None else None
            span = self._spans.begin("proxy.queue", self.node.name,
                                     trace=trace, dir="resp")
        self._work.put(("resp", payload, src, span))

    def _worker(self):
        """Serialize proxying through the proxy machine's CPU (drained in
        groups, like an event loop servicing a socket backlog)."""
        params = self.params
        while True:
            first = yield self._work
            group = [first] + self._work.take(63)
            # Redispatches cost a full request's worth of proxy CPU:
            # re-picking a backend and re-sending is the same work as a
            # fresh forward.
            cost = sum(params.cpu_response_s if kind == "resp"
                       else params.cpu_request_s
                       for kind, _payload, _src, _span in group)
            yield self.node.cpu.request(cost)
            for kind, payload, src, span in group:
                if span is not None:
                    self._spans.finish(span)
                if kind == "req":
                    self._on_client_request(payload, src)
                elif kind == "resp":
                    self._on_backend_response(payload, src)
                else:  # redispatch: src slot carries the attempt number
                    self._dispatch(payload, attempt=src)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _pick_backend(self, request: Request, attempt: int) -> Optional[str]:
        """Hash the client id over the active pool.  Subclasses (the
        shard router) override this to constrain the pool per request."""
        pool = self.active if self.active else []
        if not pool:
            return None
        return pool[(request.client_id + attempt) % len(pool)]

    def _on_client_request(self, request: Request, src: str) -> None:
        self._dispatch(request, attempt=0)

    def _dispatch(self, request: Request, attempt: int) -> None:
        params = self.params
        if (params.shed_dead and request.deadline is not None
                and self.node.sim.now >= request.deadline):
            # The client's timeout already fired; the backend tier never
            # sees this request and no reply is owed to anyone.
            self.stats["dead_dropped"] += 1
            if self._events is not None:
                self._events.emit("proxy.dead_request", self.node.name,
                                  req=request.req_id, attempt=attempt)
            return
        backend = self._pick_backend(request, attempt)
        if backend is None or attempt >= params.max_dispatch_attempts:
            self.stats["no_backend"] += 1
            if self._events is not None:
                self._events.emit(
                    "proxy.no_backend", self.node.name,
                    req=request.req_id, client=request.client_id,
                    interaction=request.interaction.value, attempt=attempt,
                    active=len(self.active))
            self._reply(request, Response(request.req_id, ok=False,
                                          error="503 no backend"))
            return
        if self._breakers is not None \
                and not self._breakers[backend].allow():
            # Breaker open: short-circuit ahead of the probe cycle and
            # try the next backend in the hash ring.
            self.stats["breaker_short_circuits"] += 1
            self._redispatch(request, attempt + 1)
            return
        if self._limit is not None \
                and not self._limit.allows(len(self._inflight)):
            # Over the adaptive concurrency limit: shed with a fast
            # local 503 instead of queueing work the backends cannot
            # absorb.  Distinct from ``refused`` so nothing redispatches.
            self.stats["shed"] += 1
            if self._events is not None:
                self._events.emit("proxy.shed", self.node.name,
                                  req=request.req_id,
                                  limit=int(self._limit.limit),
                                  inflight=len(self._inflight))
            self._reply(request, Response(request.req_id, ok=False,
                                          overloaded=True,
                                          error="503 overloaded"))
            return
        if not self.node.network.node(backend).alive:
            # TCP connect to a dead process: instant reset -> redispatch.
            self._redispatch(request, attempt + 1)
            return
        pxid = f"px{next(self._px_seq)}"
        self._inflight[pxid] = (request, backend, attempt,
                                self.node.sim.now)
        forwarded = Request(pxid, request.client_id, self.node.name,
                            PROXY_RESP_PORT, request.interaction,
                            request.session, request.sent_at,
                            trace=request.trace, deadline=request.deadline)
        self.stats["forwarded"] += 1
        if self._redispatch_budget is not None and attempt == 0:
            self._redispatch_budget.earn()
        self.node.send(backend, HTTP_PORT, forwarded,
                       size_mb=REQUEST_SIZE_MB, trace=request.trace)

    def _redispatch(self, request: Request, attempt: int) -> None:
        """Queue another dispatch attempt through the worker, charging
        ``cpu_request_s`` for it like any fresh forward."""
        if self._redispatch_budget is not None \
                and not self._redispatch_budget.try_spend():
            # Budget dry: surface the failure instead of amplifying it.
            self.stats["redispatch_denied"] += 1
            if self._events is not None:
                self._events.emit("proxy.redispatch_denied", self.node.name,
                                  req=request.req_id, attempt=attempt)
            self._reply(request, Response(request.req_id, ok=False,
                                          overloaded=True,
                                          error="503 redispatch budget"))
            return
        self.stats["redispatched"] += 1
        self._work.put(("redispatch", request, attempt, None))

    def _on_backend_response(self, response: Response, src: str) -> None:
        entry = self._inflight.pop(response.req_id, None)
        if entry is None:
            return
        request, backend, attempt, dispatched_at = entry
        latency = self.node.sim.now - dispatched_at
        if self._breakers is not None:
            breaker = self._breakers[backend]
            if response.ok:
                breaker.on_success()
            elif not response.refused and not response.overloaded:
                # Hard errors are failure signals.  A refused connection
                # just means "still recovering" (the probe cycle owns
                # that state) and an overloaded shed means the backend
                # is alive and defending itself — opening the breaker on
                # those would turn deliberate load-shedding into a
                # cascading brown-out.
                breaker.on_failure()
        if self._limit is not None and not response.refused:
            self._limit.on_result(latency, response.ok)
        if response.refused and not response.overloaded:
            # Server up but not accepting (recovering): redispatch silently.
            self._redispatch(request, attempt + 1)
            return
        if self._geo_keys is not None and response.ok:
            keys = self._geo_keys.get(backend)
            if keys is not None:
                self.stats[keys[0]] += 1
                self.stats[keys[1]] += self.node.sim.now - request.sent_at
        # Reuse the backend's Response object for the client reply instead
        # of allocating a copy; _reply restamps req_id and nothing else
        # holds a reference to the delivered payload.
        self._reply(request, response)

    def _reply(self, request: Request, response: Response) -> None:
        response.req_id = request.req_id
        self.node.send(request.reply_to, request.reply_port, response,
                       size_mb=0.0045 if response.ok else 0.0002,
                       trace=request.trace)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def _on_backend_crash(self, crashed_node) -> None:
        """TCP connections break: every request in flight on that backend
        is answered with an error (the client observes it)."""
        name = crashed_node.name
        broken = [pxid for pxid, entry in self._inflight.items()
                  if entry[1] == name]
        for pxid in broken:
            request, _backend, _attempt, _at = self._inflight.pop(pxid)
            self.stats["broken_connections"] += 1
            if self._events is not None:
                self._events.emit(
                    "proxy.broken_connection", self.node.name,
                    req=request.req_id, client=request.client_id,
                    interaction=request.interaction.value, backend=name)
            if self._breakers is not None:
                self._breakers[name].on_failure()
            self._reply(request, Response(request.req_id, ok=False,
                                          error="connection reset by peer"))

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------
    def _probe_loop(self):
        params = self.params
        while True:
            for backend in self.backends:
                probe_id = next(self._probe_seq)
                self._probe_pending[probe_id] = backend
                self.node.send(backend, PROBE_PORT, probe_id, size_mb=0.0002)
                self.node.sim.call_after(params.probe_timeout_s,
                                         self._probe_timeout, probe_id)
            yield self.node.sim.timeout(params.probe_interval_s)

    def _on_probe_reply(self, payload, src: str) -> None:
        probe_id, backend, ready = payload
        if self._probe_pending.pop(probe_id, None) is None:
            return  # already timed out
        if ready:
            self._probe_success(backend)
        else:
            self._probe_failure(backend)

    def _probe_timeout(self, probe_id: int) -> None:
        backend = self._probe_pending.pop(probe_id, None)
        if backend is not None:
            self._probe_failure(backend)

    def _probe_failure(self, backend: str) -> None:
        self._rise_counts[backend] = 0
        self._fail_counts[backend] += 1
        if (self._fail_counts[backend] >= self.params.fall
                and backend in self.active):
            self.active.remove(backend)
            self.stats["removals"] += 1
            if self._events is not None:
                self._events.emit("proxy.backend_down", self.node.name,
                                  backend=backend, active=len(self.active))

    def _probe_success(self, backend: str) -> None:
        self._fail_counts[backend] = 0
        self._rise_counts[backend] += 1
        if (self._rise_counts[backend] >= self.params.rise
                and backend not in self.active):
            self.active.append(backend)
            self.active.sort()
            self.stats["readds"] += 1
            if self._events is not None:
                self._events.emit("proxy.backend_up", self.node.name,
                                  backend=backend, active=len(self.active))
