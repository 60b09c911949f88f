"""The client core both load models share: one interaction, start to end.

The closed-loop browser (:mod:`repro.load.closed_loop`) and the
open-loop source (:mod:`repro.load.open_loop`) are both a
:class:`ClientCore` and put every interaction through it:

* Each attempt goes out under a fresh ``req_id`` (so the driver drops
  an answer to an earlier attempt like any straggler) and carries the
  interaction's trace id (its first ``req_id``, in traced runs), a copy
  of the user's session and, with the deadline defense on, its own
  deadline (now + timeout).
* A failed attempt -- an error answer or a timeout -- is retried after
  the policy's backoff (:mod:`repro.resilience.retry`) while the policy
  is on, retries are left and the token bucket, if any, grants one; the
  bucket earns on first tries.  A dry bucket ends the interaction
  instead of joining the storm.  Only jittered backoff draws from the
  retry stream, so retries never shift a driver's other streams.
* Only the final outcome is recorded, timed from the first send: one
  collector sample, one ``web.wirt_s`` observation on success, and in
  traced runs one ``interaction`` root span over every attempt.
* A successful answer's data updates the session through
  :func:`apply_response`, which draws the item pick from the driver's
  stream.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional

from repro.faults.metrics import MetricsCollector
from repro.obs.registry import registry_of
from repro.resilience.retry import RetryPolicy
from repro.sim.node import Node
from repro.sim.trace import log_for
from repro.tpcw.workload import Interaction
from repro.web.http import REQUEST_SIZE_MB, Request, Response
from repro.web.proxy import CLIENT_IN_PORT


class ClientCore:
    """One client endpoint, the base of both drivers: sends attempts,
    decides retries, records outcomes.  ``id_prefix`` makes its
    ``req_id``s unique in the deployment; ``reply_port`` is where the
    node's answers arrive."""

    def __init__(self, node: Node, proxy_name: str,
                 collector: MetricsCollector, *, reply_port: str,
                 id_prefix: str, timeout_s: float,
                 retry: Optional[RetryPolicy],
                 retry_rng: Optional[random.Random],
                 propagate_deadline: bool):
        self.node = node
        self.proxy_name = proxy_name
        self.collector = collector
        self.reply_port = reply_port
        self.id_prefix = id_prefix
        self.timeout_s = timeout_s
        self.retry = retry
        self._retry_rng = retry_rng
        self.budget = retry.make_budget() if retry is not None else None
        self.propagate_deadline = propagate_deadline
        self._req_seq = itertools.count(1)
        self._roots = log_for(node.sim, "interaction")
        self._obs_wirt = registry_of(node.sim).histogram(
            "web.wirt_s", lo=1e-4, hi=100.0)

    def send(self, client_id: int, interaction: Interaction,
             session: Optional[Dict[str, object]], first_sent_at: float,
             attempt: int, trace: Optional[str]) -> Request:
        """Send attempt number ``attempt`` (0 is the first try); returns
        the request, whose ``trace`` the next attempt passes back."""
        req_id = f"{self.id_prefix}{next(self._req_seq)}"
        if trace is None and self._roots is not None:
            trace = req_id
        request = Request(req_id, client_id, self.node.name,
                          self.reply_port, interaction,
                          dict(session) if session else {},
                          sent_at=first_sent_at, trace=trace)
        if self.propagate_deadline:
            request.deadline = self.node.sim.now + self.timeout_s
        if attempt == 0 and self.budget is not None:
            self.budget.earn()
        self.node.send(self.proxy_name, CLIENT_IN_PORT, request,
                       size_mb=REQUEST_SIZE_MB, trace=trace)
        return request

    def retry_delay(self, attempt: int,
                    response: Optional[Response]) -> Optional[float]:
        """Backoff before retrying attempt ``attempt``, answered by
        ``response`` (None: timed out); None once the interaction is over,
        answered or given up."""
        policy = self.retry
        if response is not None and response.ok or policy is None \
                or not policy.enabled or attempt >= policy.attempts:
            return None
        if self.budget is not None and not self.budget.try_spend():
            return None
        return policy.delay_s(attempt, self._retry_rng)

    def finish(self, sent_at: float, end: float, interaction: Interaction,
               response: Optional[Response],
               trace: Optional[str]) -> Optional[dict]:
        """Record the interaction's final outcome (``response`` None is a
        timeout); returns the data a successful answer carries."""
        ok = response is not None and response.ok
        if response is None:
            error_kind = "timeout"
        else:
            error_kind = "" if ok else (response.error or "error")
        self.collector.record(sent_at, end, interaction, ok, error_kind)
        if ok:
            self._obs_wirt.observe(end - sent_at)
        if trace is not None:
            self._roots.emit("interaction", self.node.name, start=sent_at,
                             trace=trace, interaction=interaction.value,
                             ok=ok, error=error_kind)
        return response.data if ok else None


def apply_response(session: Dict[str, object], interaction: Interaction,
                   data: dict, rng: random.Random) -> None:
    """Carry a successful answer's customer, cart and item into the
    user's session; a ``BUY_CONFIRM`` closes the shopping trip."""
    if "c_id" in data and data["c_id"] is not None:
        session["c_id"] = data["c_id"]
    if "sc_id" in data and data["sc_id"] is not None:
        session["sc_id"] = data["sc_id"]
    items = data.get("items")
    if items:
        chosen = rng.choice(items)
        session["i_id"] = chosen[0] if isinstance(chosen, tuple) else chosen
    if interaction is Interaction.BUY_CONFIRM:
        session.pop("sc_id", None)
        session.pop("i_id", None)
