"""Remote Browser Emulators (RBEs): TPC-W's closed-loop load generators.

Each RBE is one emulated user: pick an interaction from the profile mix,
send it through the reverse proxy, wait for the response (or a timeout),
record the measurement, think (exponentially distributed, truncated at
10x the mean), repeat.  The offered load of a fleet is therefore
``#RBEs / think_time`` (Section 3), and the 1 s think time of Section 5.1
is the default.

Closed-loop behaviour is what couples WIPS to WIRT in the paper: when
response times inflate, each RBE issues fewer requests per second.
Attempts, retries, recording and the session update come from the
client core the RBE subclasses (:mod:`repro.load.client`).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.faults.metrics import MetricsCollector
from repro.load.client import ClientCore, apply_response
from repro.resilience.retry import RetryPolicy
from repro.sim.node import Node
from repro.tpcw.navigation import Navigator
from repro.tpcw.workload import Interaction, WorkloadProfile

#: Sentinel delivered when the client-side timeout fires first.
_TIMED_OUT = object()


class RemoteBrowserEmulator(ClientCore):
    """One emulated browser living on a client node.

    ``rbe_id`` must be unique within the deployment (it is the proxy's
    hashing key); the harness assigns ids 1..N so runs are reproducible.
    ``rng`` drives the think times, the mix (or navigation) and the
    session's item picks; ``retry_rng`` only the retry backoff.
    """

    def __init__(self, node: Node, proxy_name: str, profile: WorkloadProfile,
                 collector: MetricsCollector, rng: random.Random,
                 rbe_id: int, think_time_s: float = 1.0,
                 timeout_s: float = 10.0, use_navigation: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 retry_rng: Optional[random.Random] = None,
                 propagate_deadline: bool = False):
        super().__init__(
            node, proxy_name, collector, reply_port=f"rbe-{rbe_id}",
            id_prefix=f"r{rbe_id}-", timeout_s=timeout_s, retry=retry,
            retry_rng=retry_rng, propagate_deadline=propagate_deadline)
        self.profile = profile
        self.rng = rng
        self.think_time_s = think_time_s
        self.rbe_id = rbe_id
        self._navigator = None
        if use_navigation:
            # Full CBMG page navigation (same stationary mix, realistic
            # page-to-page correlation); see repro.tpcw.navigation.
            self._navigator = Navigator(profile, rng)
        self.session: Dict[str, object] = {}
        self._responses = node.sim.channel()

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
            data = yield from self._issue(interaction)
            if data is not None:
                apply_response(self.session, interaction, data, self.rng)
                if interaction is Interaction.BUY_CONFIRM \
                        and self._navigator is not None:
                    # The order closed the shopping trip; start fresh.
                    self._navigator.reset()
            think = min(self.rng.expovariate(1.0 / self.think_time_s),
                        10.0 * self.think_time_s)
            yield sim.timeout(think)

    def _issue(self, interaction: Interaction):
        """Run one interaction through every attempt; returns the data
        of a successful answer (None otherwise)."""
        sim = self.node.sim
        sent_at = sim.now
        trace = None
        attempt = 0
        while True:
            request = self.send(self.rbe_id, interaction, self.session,
                                sent_at, attempt, trace)
            trace = request.trace
            response = yield from self._await(request.req_id)
            delay = self.retry_delay(attempt, response)
            if delay is None:
                return self.finish(sent_at, sim.now, interaction, response,
                                   trace)
            if delay > 0.0:
                yield sim.timeout(delay)
            attempt += 1

    def _await(self, req_id: str):
        """Wait for the answer to ``req_id``; None on timeout.  Answers
        to earlier, timed-out attempts are dropped."""
        sim = self.node.sim
        deadline = sim.now + self.timeout_s
        while True:
            # Check the deadline before queueing a getter: a getter left
            # queued would take the next answer, which nobody reads.
            remaining = deadline - sim.now
            if remaining <= 0:
                return None
            getter = self._responses.get()
            timer = sim.call_after(
                remaining,
                lambda ev=getter: None if ev.triggered else ev.succeed(_TIMED_OUT))
            response = yield getter
            timer.cancel()
            if response is _TIMED_OUT:
                return None
            if response.req_id == req_id:
                return response
