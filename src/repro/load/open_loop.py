"""Aggregated open-loop load: arrival processes instead of client processes.

The paper's closed-loop RBE model (``repro.load.closed_loop``) allocates one
simulated process per emulated browser, so kernel work grows with the
*population* -- thousands of users are the practical ceiling.  This module
replaces the fleet with **one arrival process per TPC-W interaction
class**: class ``c`` fires requests at rate ``lambda_c = wips * pi_c``,
where ``pi`` is the stationary distribution of the profile's fitted CBMG
navigation chain (:mod:`repro.tpcw.navigation`), so the long-run
interaction mix is exactly the paper's browsing/shopping/ordering mix.

The emulated *population* is then only an id space: each arrival draws a
customer slot uniformly from ``[1, population]`` for proxy hashing and
session continuity.  A million emulated users costs the same kernel work
as a thousand -- per-arrival cost is O(1) and there is no per-user
process.  Arrivals are open-loop: the offered rate does not back off when
response times inflate, which is the standard "open vs closed" modelling
distinction (and the reason saturated open-loop runs show unbounded
queues where closed-loop runs show capped WIPS).

Determinism: every gap, class pick, and session draw comes from named
:class:`~repro.sim.rng.SeedTree` streams, so a run is bit-for-bit
reproducible from the experiment seed, like the closed-loop fleet.
Attempts, retries, recording and the session update come from the
client core the source subclasses (:mod:`repro.load.client`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.faults.metrics import MetricsCollector
from repro.load.client import ClientCore, apply_response
from repro.resilience.retry import RetryPolicy
from repro.sim.node import Node
from repro.sim.rng import SeedTree
from repro.tpcw.navigation import fitted_chain
from repro.tpcw.workload import Interaction, WorkloadProfile
from repro.web.http import Response

#: Touched-user session cache bound; far above what a test run touches,
#: far below a million-user id space.
_SESSION_CACHE_MAX = 200_000


def class_mix(profile: WorkloadProfile) -> List[Tuple[Interaction, float]]:
    """Per-class probabilities from the profile's CBMG stationary mix.

    Derived from the fitted navigation chain (not the raw mix table) so
    open-loop rates match what a navigating closed-loop fleet converges
    to; the fit drives the two together to ~1e-10.
    """
    _matrix, _cumulative, mix = fitted_chain(profile)
    return [(interaction, p) for interaction, p in zip(Interaction, mix)
            if p > 0.0]


def class_rates(profile: WorkloadProfile,
                wips: float) -> List[Tuple[Interaction, float]]:
    """Per-class arrival rates (interactions/s) summing to ``wips``."""
    return [(interaction, wips * p) for interaction, p in class_mix(profile)]


class OpenLoopLoadSource(ClientCore):
    """One aggregated request source living on a client node.

    Mirrors the externally visible behaviour of an RBE fleet slice --
    requests into the proxy's ``http-in`` port, collector/observability
    records per interaction, session continuity per emulated user, a
    client-side timeout -- without any per-user process.  Timeouts are
    swept by a single deadline-ordered reaper timer instead of one timer
    per request, so the pending-request bookkeeping is O(1) per arrival.
    """

    def __init__(self, node: Node, proxy_name: str, profile: WorkloadProfile,
                 collector: MetricsCollector, seed: SeedTree, *,
                 source_id: int, wips: float, population: int,
                 arrival: str = "poisson", timeout_s: float = 10.0,
                 retry: Optional[RetryPolicy] = None,
                 propagate_deadline: bool = False):
        if wips <= 0:
            raise ValueError(f"open-loop wips must be positive, got {wips}")
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if arrival not in ("poisson", "deterministic"):
            raise ValueError(f"unknown arrival process: {arrival!r}")
        self.profile = profile
        self.source_id = source_id
        self.population = population
        self.arrival = arrival
        self.rates = class_rates(profile, wips)
        # One named RNG stream per class (gaps + user draws) keeps the
        # arrival sequence of one class independent of every other's.
        self._class_rngs = {
            interaction: seed.fork_random(
                f"open-{source_id}-{interaction.value}")
            for interaction, _rate in self.rates}
        self._session_rng = seed.fork_random(f"open-{source_id}-sessions")
        # The retry stream is forked only when retries are on.
        retry_rng = (seed.fork_random(f"open-{source_id}-retry")
                     if retry is not None and retry.enabled else None)
        super().__init__(
            node, proxy_name, collector, reply_port=f"open-{source_id}",
            id_prefix=f"o{source_id}-", timeout_s=timeout_s, retry=retry,
            retry_rng=retry_rng, propagate_deadline=propagate_deadline)
        # req_id -> (first sent_at, interaction, user id, trace, attempt);
        # the trace id is the first attempt's req_id in traced runs.
        self._pending: Dict[
            str, Tuple[float, Interaction, int, Optional[str], int]] = {}
        # (deadline, req_id) in send order == deadline order.
        self._expiry: Deque[Tuple[float, str]] = deque()
        self._reaper_armed = False
        # Session continuity for *touched* users only.
        self._sessions: Dict[int, Dict[str, object]] = {}

    def start(self) -> None:
        self.node.handle(self.reply_port, self._on_response)
        for interaction, rate in self.rates:
            self.node.spawn(
                self._arrival_loop(interaction, rate),
                name=f"open-{self.source_id}-{interaction.value}")

    # ------------------------------------------------------------------
    # arrivals
    # ------------------------------------------------------------------
    def _arrival_loop(self, interaction: Interaction, rate: float):
        sim = self.node.sim
        rng = self._class_rngs[interaction]
        gap = 1.0 / rate if self.arrival == "deterministic" else None
        # Deterministic arrivals start phase-shifted by the class RNG so
        # the classes do not all fire at the same instants.
        yield sim.timeout(rng.expovariate(rate) if gap is None
                          else rng.uniform(0.0, gap))
        while True:
            uid = 1 + rng.randrange(self.population)
            self._attempt(interaction, uid, sim.now, 0, None)
            yield sim.timeout(rng.expovariate(rate) if gap is None else gap)

    def _attempt(self, interaction: Interaction, uid: int,
                 first_sent_at: float, attempt: int,
                 trace: Optional[str]) -> None:
        """Send one attempt (attempt 0 is the arrival itself)."""
        request = self.send(uid, interaction, self._sessions.get(uid),
                            first_sent_at, attempt, trace)
        self._pending[request.req_id] = (first_sent_at, interaction, uid,
                                         request.trace, attempt)
        self._expiry.append((self.node.sim.now + self.timeout_s,
                             request.req_id))
        self._arm_reaper()

    # ------------------------------------------------------------------
    # completion and timeout paths
    # ------------------------------------------------------------------
    def _on_response(self, response: Response, src: str) -> None:
        entry = self._pending.pop(response.req_id, None)
        if entry is not None:  # else it timed out: a stale answer
            self._settle(entry, response, self.node.sim.now)

    def _settle(self, entry, response: Optional[Response],
                end: float) -> None:
        """Retry a failed attempt or record the interaction's outcome
        (``response`` None: timed out at ``end``, its deadline)."""
        sent_at, interaction, uid, trace, attempt = entry
        delay = self.retry_delay(attempt, response)
        if delay is not None:
            if delay > 0.0:
                self.node.sim.call_after(delay, self._attempt, interaction,
                                         uid, sent_at, attempt + 1, trace)
            else:
                self._attempt(interaction, uid, sent_at, attempt + 1, trace)
            return
        data = self.finish(sent_at, end, interaction, response, trace)
        if data is not None:
            session = self._sessions.get(uid)
            if session is None:
                if len(self._sessions) >= _SESSION_CACHE_MAX:
                    self._sessions.pop(next(iter(self._sessions)))
                session = self._sessions[uid] = {}
            apply_response(session, interaction, data, self._session_rng)

    def _arm_reaper(self) -> None:
        if self._reaper_armed or not self._expiry:
            return
        self._reaper_armed = True
        deadline = self._expiry[0][0]
        self.node.sim.call_at(deadline, self._reap)

    def _reap(self) -> None:
        self._reaper_armed = False
        now = self.node.sim.now
        while self._expiry and self._expiry[0][0] <= now:
            deadline, req_id = self._expiry.popleft()
            entry = self._pending.pop(req_id, None)
            if entry is not None:  # else answered in time
                self._settle(entry, None, deadline)
        self._arm_reaper()
