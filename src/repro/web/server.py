"""The application server: Tomcat's role on each replica node.

One server per replica.  Requests queue for the node CPU (a single
queueing station -- saturation and the WIPS/WIRT correlation emerge here),
then run their servlet; update servlets block on Treplica without holding
the CPU.  While the replica is recovering (`runtime.ready` false) new
connections are refused immediately, which the proxy turns into silent
redispatches; the health probe reports down until recovery completes, as
in the paper's failover description.

With the overload defenses on (repro.resilience), two checks run at
accept time -- before any CPU is charged, because refusing cheaply is
the whole point:

* a request whose propagated client deadline already passed is dropped
  without a response (the emitter's own timeout has fired; serving it
  would burn a full servlet plus Paxos slots on an answer nobody reads,
  which is the work amplification behind metastable collapse);
* the admission controller's bounded queue and CoDel delay target
  refuse excess arrivals with a distinct ``503 overloaded`` that the
  proxy surfaces to the client instead of redispatching.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.resilience.admission import ADMIT, SHED_DEAD, AdmissionController
from repro.sim.node import Node
from repro.sim.trace import log_for, log_of
from repro.tpcw.bookstore import BookstoreServlets
from repro.tpcw.workload import Interaction
from repro.treplica.runtime import TreplicaRuntime
from repro.web.http import RESPONSE_SIZE_MB, Request, Response, SERVICE_TIMES

HTTP_PORT = "http"
PROBE_PORT = "probe"
PROBE_REPLY_PORT = "probe-reply"


class ApplicationServer:
    """Serves TPC-W interactions on one replica node."""

    def __init__(self, node: Node, runtime: TreplicaRuntime,
                 servlets: BookstoreServlets,
                 service_times: Optional[Dict[Interaction, float]] = None,
                 admission: Optional[AdmissionController] = None):
        self.node = node
        self.runtime = runtime
        self.servlets = servlets
        self.service_times = service_times or SERVICE_TIMES
        self.admission = admission
        self._events = log_of(node.sim)
        self._cpu_events = log_for(node.sim, "server.cpu")
        self.requests_served = 0
        self.requests_refused = 0
        self.requests_failed = 0
        self.requests_shed = 0       # refused 503 overloaded (admission)
        self.requests_dead = 0       # dropped: client deadline passed

    def start(self) -> None:
        self.node.handle(HTTP_PORT, self._on_request)
        self.node.handle(PROBE_PORT, self._on_probe)

    # ------------------------------------------------------------------
    def _on_probe(self, payload, src: str) -> None:
        probe_id = payload
        self.node.send(src, PROBE_REPLY_PORT,
                       (probe_id, self.node.name, self.runtime.ready),
                       size_mb=0.0002)

    def _on_request(self, request: Request, src: str) -> None:
        if not self.runtime.ready:
            # Recovering: refuse the connection at accept time (no CPU).
            self.node.send(src, "proxy-resp",
                           Response(request.req_id, ok=False, refused=True,
                                    error="not ready"),
                           size_mb=0.0002, trace=request.trace)
            self.requests_refused += 1
            return
        admitted = None
        if self.admission is not None:
            admitted = self.admission.admit(request.deadline)
            if admitted == SHED_DEAD:
                # Client gave up already; nobody is listening for this.
                self.requests_dead += 1
                if self._events is not None:
                    self._events.emit("server.dead_request", self.node.name,
                                      req=request.req_id, where="accept")
                return
            if admitted != ADMIT:
                self.requests_shed += 1
                if self._events is not None:
                    self._events.emit("server.shed", self.node.name,
                                      req=request.req_id, why=admitted)
                self.node.send(src, "proxy-resp",
                               Response(request.req_id, ok=False,
                                        overloaded=True,
                                        error="503 overloaded"),
                               size_mb=0.0002, trace=request.trace)
                return
        process = self.node.spawn(self._process(request, src),
                                  name="request")
        # Stamp the handling process with the causal context so work
        # running under it (servlets, execute, 2PC) can be attributed.
        process.trace = request.trace

    def _process(self, request: Request, src: str):
        admission = self.admission
        queued_at = self.node.sim.now
        # Request threads are the bulk class; middleware work (consensus
        # messages, the applier) runs at higher scheduling priority.
        yield self.node.cpu.request(self.service_times[request.interaction],
                                    priority=1)
        if self._cpu_events is not None:
            self._cpu_events.emit("server.cpu", self.node.name,
                                  start=queued_at, trace=request.trace,
                                  interaction=request.interaction.value)
        if admission is not None:
            # Feed the CoDel estimator the delay this request actually
            # waited before reaching the CPU.
            admission.on_service_start(self.node.sim.now - queued_at)
        try:
            data = yield from self.servlets.handle(request.interaction,
                                                   request.session)
            response = Response(request.req_id, ok=True, data=data)
            self.requests_served += 1
        except Exception as exc:  # noqa: BLE001 - a 500, not a sim bug
            response = Response(request.req_id, ok=False, error=repr(exc))
            self.requests_failed += 1
        finally:
            if admission is not None:
                admission.release()
        self.node.send(src, "proxy-resp", response, size_mb=RESPONSE_SIZE_MB,
                       trace=request.trace)
