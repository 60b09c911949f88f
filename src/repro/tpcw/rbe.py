"""Remote Browser Emulators (RBEs): TPC-W's closed-loop load generators.

Each RBE is one emulated user: pick an interaction from the profile mix,
send it through the reverse proxy, wait for the response (or a timeout),
record the measurement, think (exponentially distributed, truncated at
10x the mean), repeat.  The offered load of a fleet is therefore
``#RBEs / think_time`` (Section 3), and the 1 s think time of Section 5.1
is the default.

Closed-loop behaviour is what couples WIPS to WIRT in the paper: when
response times inflate, each RBE issues fewer requests per second.
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
from repro.tpcw.workload import Interaction, WorkloadProfile
from repro.web.http import REQUEST_SIZE_MB, Request, Response
from repro.web.proxy import CLIENT_IN_PORT

#: Sentinel delivered when the client-side timeout fires first.
_TIMED_OUT = object()


class RemoteBrowserEmulator:
    """One emulated browser living on a client node.

    ``rbe_id`` must be unique within the deployment (it is the proxy's
    hashing key); the harness assigns ids 1..N so runs are reproducible.
    """

    def __init__(self, node: Node, proxy_name: str, profile: WorkloadProfile,
                 collector: MetricsCollector, rng: random.Random,
                 rbe_id: int, think_time_s: float = 1.0,
                 timeout_s: float = 10.0, use_navigation: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 retry_rng: Optional[random.Random] = None,
                 propagate_deadline: bool = False):
        self.node = node
        self.proxy_name = proxy_name
        self.profile = profile
        self.collector = collector
        self.rng = rng
        self.think_time_s = think_time_s
        self.timeout_s = timeout_s
        self.rbe_id = rbe_id
        # Client retry policy (repro.resilience).  A browser retries the
        # *interaction*: a failed attempt is re-sent under a fresh req_id
        # after the policy's backoff, and only the final outcome is
        # recorded.  ``retry_rng`` is a dedicated stream (only drawn from
        # for jittered backoff) so enabling retries never perturbs the
        # think/mix streams.  The token-bucket budget, when configured,
        # earns on first tries and is spent per retry.
        self.retry = retry
        self._retry_rng = retry_rng
        self._retry_budget = retry.make_budget() if retry is not None else None
        self.propagate_deadline = propagate_deadline
        self.retries_sent = 0
        self.retries_denied = 0
        self._navigator = None
        if use_navigation:
            # Full CBMG page navigation (same stationary mix, realistic
            # page-to-page correlation); see repro.tpcw.navigation.
            from repro.tpcw.navigation import Navigator
            self._navigator = Navigator(profile, rng)
        self.reply_port = f"rbe-{self.rbe_id}"
        self.session: Dict[str, object] = {}
        self._responses = node.sim.channel()
        self._req_seq = itertools.count(1)
        self._roots = log_for(node.sim, "interaction")
        self._obs_wirt = registry_of(node.sim).histogram(
            "web.wirt_s", lo=1e-4, hi=100.0)

    def start(self) -> None:
        self.node.handle(self.reply_port,
                         lambda payload, src: self._responses.put(payload))
        self.node.spawn(self._run(), name=f"rbe-{self.rbe_id}")

    # ------------------------------------------------------------------
    def _run(self):
        sim = self.node.sim
        # De-synchronize the fleet: start at a random phase of a think time.
        yield sim.timeout(self.rng.uniform(0.0, self.think_time_s))
        while True:
            if self._navigator is not None:
                interaction = self._navigator.next_interaction()
            else:
                interaction = self.profile.sample(self.rng)
            response = yield from self._issue(interaction)
            self._update_session(interaction, response)
            think = min(self.rng.expovariate(1.0 / self.think_time_s),
                        10.0 * self.think_time_s)
            yield sim.timeout(think)

    def _issue(self, interaction: Interaction):
        sim = self.node.sim
        policy = self.retry
        first_sent_at = sim.now
        # Traced runs name the interaction after its first req_id and
        # every attempt carries that trace id; the root span covers all
        # of them and is emitted in _record.
        trace = None
        attempt = 0
        while True:
            req_id = f"r{self.rbe_id}-{next(self._req_seq)}"
            if trace is None and self._roots is not None:
                trace = req_id
            response = yield from self._attempt(interaction, req_id, trace,
                                                first_sent_at, attempt)
            if response is not None and response.ok:
                break
            if policy is None or not policy.enabled \
                    or attempt >= policy.attempts:
                break
            if self._retry_budget is not None \
                    and not self._retry_budget.try_spend():
                # Budget dry: a well-behaved client gives up instead of
                # joining the storm.
                self.retries_denied += 1
                break
            delay = policy.delay_s(attempt, self._retry_rng)
            if delay > 0.0:
                yield sim.timeout(delay)
            attempt += 1
            self.retries_sent += 1
        self._record(first_sent_at, interaction, response, trace)
        return response

    def _attempt(self, interaction: Interaction, req_id: str,
                 trace: Optional[str], first_sent_at: float, attempt: int):
        """Send one attempt and wait for its answer (or the timeout).

        Returns the Response, or None on timeout.  Each attempt carries a
        fresh req_id, so a stale answer to an earlier attempt is dropped
        by the req_id check exactly like any post-timeout straggler.
        """
        sim = self.node.sim
        request = Request(req_id, self.rbe_id, self.node.name,
                          self.reply_port, interaction,
                          dict(self.session), sent_at=first_sent_at,
                          trace=trace)
        if self.propagate_deadline:
            request.deadline = sim.now + self.timeout_s
        if self._retry_budget is not None and attempt == 0:
            self._retry_budget.earn()
        self.node.send(self.proxy_name, CLIENT_IN_PORT, request,
                       size_mb=REQUEST_SIZE_MB, trace=request.trace)
        deadline = sim.now + self.timeout_s
        while True:
            getter = self._responses.get()
            remaining = deadline - sim.now
            if remaining <= 0:
                return None
            timer = sim.call_after(
                remaining,
                lambda ev=getter: None if ev.triggered else ev.succeed(_TIMED_OUT))
            response = yield getter
            timer.cancel()
            if response is _TIMED_OUT:
                return None
            if response.req_id == req_id:
                return response
            # Stale response from an earlier timed-out request: drop it.

    def _record(self, sent_at: float, interaction: Interaction,
                response: Optional[Response], trace: Optional[str]) -> None:
        ok = response is not None and response.ok
        error_kind = ""
        if response is None:
            error_kind = "timeout"
        elif not response.ok:
            error_kind = response.error or "error"
        self.collector.record(sent_at, self.node.sim.now,
                              interaction, ok, error_kind)
        if ok:
            self._obs_wirt.observe(self.node.sim.now - sent_at)
        if trace is not None:
            self._roots.emit("interaction", self.node.name, start=sent_at,
                             trace=trace, interaction=interaction.value,
                             ok=ok, error=error_kind)

    # ------------------------------------------------------------------
    def _update_session(self, interaction: Interaction,
                        response: Optional[Response]) -> None:
        if response is None or not response.ok or response.data is None:
            return
        data = response.data
        if "c_id" in data and data["c_id"] is not None:
            self.session["c_id"] = data["c_id"]
        if "sc_id" in data and data["sc_id"] is not None:
            self.session["sc_id"] = data["sc_id"]
        items = data.get("items")
        if items:
            chosen = self.rng.choice(items)
            self.session["i_id"] = chosen[0] if isinstance(chosen, tuple) else chosen
        if interaction is Interaction.BUY_CONFIRM:
            # The order closed the session's shopping trip; start fresh.
            self.session.pop("sc_id", None)
            self.session.pop("i_id", None)
            if self._navigator is not None:
                self._navigator.reset()
