"""Aggregated open-loop load: arrival processes instead of client processes.

The paper's closed-loop RBE model (``repro.tpcw.rbe``) allocates one
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
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.faults.metrics import MetricsCollector
from repro.obs.registry import registry_of
from repro.resilience.retry import RetryPolicy
from repro.sim.node import Node
from repro.sim.rng import SeedTree
from repro.tpcw.navigation import fitted_chain
from repro.tpcw.workload import Interaction, WorkloadProfile
from repro.web.http import REQUEST_SIZE_MB, Request, Response
from repro.web.proxy import CLIENT_IN_PORT

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


class OpenLoopLoadSource:
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
        self.node = node
        self.proxy_name = proxy_name
        self.profile = profile
        self.collector = collector
        self.source_id = source_id
        self.wips = wips
        self.population = population
        self.arrival = arrival
        self.timeout_s = timeout_s
        self.reply_port = f"open-{source_id}"
        self.rates = class_rates(profile, wips)
        # One named RNG stream per class (gaps + user draws) keeps the
        # arrival sequence of one class independent of every other's.
        self._class_rngs = {
            interaction: seed.fork_random(
                f"open-{source_id}-{interaction.value}")
            for interaction, _rate in self.rates}
        self._session_rng = seed.fork_random(f"open-{source_id}-sessions")
        # Client retry policy (repro.resilience): a failed attempt is
        # re-sent under a fresh req_id after the policy's backoff and only
        # the final outcome is recorded.  The retry stream is forked only
        # when retries are on; it is drawn from only for jittered backoff,
        # so the arrival/session streams never shift.
        self.retry = retry
        self._retry_rng = (seed.fork_random(f"open-{source_id}-retry")
                           if retry is not None and retry.enabled else None)
        self._retry_budget = retry.make_budget() if retry is not None else None
        self.propagate_deadline = propagate_deadline
        self.retries_sent = 0
        self.retries_denied = 0
        self._req_seq = itertools.count(1)
        # req_id -> (first sent_at, interaction, user id, root span, attempt)
        self._pending: Dict[
            str, Tuple[float, Interaction, int, object, int]] = {}
        # (deadline, req_id) in send order == deadline order.
        self._expiry: Deque[Tuple[float, str]] = deque()
        self._reaper_armed = False
        # Session continuity for *touched* users only.
        self._sessions: Dict[int, Dict[str, object]] = {}
        self.issued = 0
        self.timed_out = 0
        self._spans = getattr(node.sim, "spans", None)
        self._obs_wirt = registry_of(node.sim).histogram(
            "web.wirt_s", lo=1e-4, hi=100.0)

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
        if self.arrival == "deterministic":
            gap = 1.0 / rate
            # Deterministic arrivals start phase-shifted by the class RNG
            # so the classes do not all fire at the same instants.
            yield sim.timeout(rng.uniform(0.0, gap))
            while True:
                self._emit(interaction, rng)
                yield sim.timeout(gap)
        while True:
            yield sim.timeout(rng.expovariate(rate))
            self._emit(interaction, rng)

    def _emit(self, interaction: Interaction, rng) -> None:
        uid = 1 + rng.randrange(self.population)
        self._send(interaction, uid, self.node.sim.now, 0, None)

    def _send(self, interaction: Interaction, uid: int, first_sent_at: float,
              attempt: int, span) -> None:
        """Send one attempt (attempt 0 is the arrival itself)."""
        sim = self.node.sim
        session = self._sessions.get(uid)
        req_id = f"o{self.source_id}-{next(self._req_seq)}"
        request = Request(req_id, uid, self.node.name, self.reply_port,
                          interaction,
                          dict(session) if session else {},
                          sent_at=first_sent_at)
        if self.propagate_deadline:
            request.deadline = sim.now + self.timeout_s
        if self._spans is not None:
            request.trace = req_id
            if span is None:
                span = self._spans.begin("interaction", self.node.name,
                                         trace=req_id,
                                         interaction=interaction.value)
        if attempt == 0:
            self.issued += 1
            if self._retry_budget is not None:
                self._retry_budget.earn()
        else:
            self.retries_sent += 1
        self._pending[req_id] = (first_sent_at, interaction, uid, span,
                                 attempt)
        self._expiry.append((sim.now + self.timeout_s, req_id))
        self._arm_reaper()
        self.node.send(self.proxy_name, CLIENT_IN_PORT, request,
                       size_mb=REQUEST_SIZE_MB, trace=request.trace)

    # ------------------------------------------------------------------
    # retry path
    # ------------------------------------------------------------------
    def _should_retry(self, attempt: int) -> bool:
        policy = self.retry
        if policy is None or not policy.enabled \
                or attempt >= policy.attempts:
            return False
        if self._retry_budget is not None \
                and not self._retry_budget.try_spend():
            self.retries_denied += 1
            return False
        return True

    def _schedule_retry(self, interaction: Interaction, uid: int,
                        first_sent_at: float, attempt: int, span) -> None:
        delay = self.retry.delay_s(attempt, self._retry_rng)
        if delay > 0.0:
            self.node.sim.call_after(delay, self._send, interaction, uid,
                                     first_sent_at, attempt + 1, span)
        else:
            self._send(interaction, uid, first_sent_at, attempt + 1, span)

    # ------------------------------------------------------------------
    # completion and timeout paths
    # ------------------------------------------------------------------
    def _on_response(self, response: Response, src: str) -> None:
        entry = self._pending.pop(response.req_id, None)
        if entry is None:
            return  # already timed out; drop the stale response
        sent_at, interaction, uid, span, attempt = entry
        if not response.ok and self._should_retry(attempt):
            self._schedule_retry(interaction, uid, sent_at, attempt, span)
            return
        ok = response.ok
        error_kind = "" if ok else (response.error or "error")
        now = self.node.sim.now
        self.collector.record(sent_at, now, interaction, ok, error_kind)
        if ok:
            self._obs_wirt.observe(now - sent_at)
            self._update_session(uid, interaction, response)
        if span is not None:
            self._spans.finish(span, ok=ok, error=error_kind)

    def _arm_reaper(self) -> None:
        if self._reaper_armed or not self._expiry:
            return
        self._reaper_armed = True
        deadline = self._expiry[0][0]
        self.node.sim.call_at(deadline, self._reap)

    def _reap(self) -> None:
        self._reaper_armed = False
        sim = self.node.sim
        now = sim.now
        while self._expiry and self._expiry[0][0] <= now:
            deadline, req_id = self._expiry.popleft()
            entry = self._pending.pop(req_id, None)
            if entry is None:
                continue  # answered in time
            sent_at, interaction, uid, span, attempt = entry
            self.timed_out += 1
            if self._should_retry(attempt):
                self._schedule_retry(interaction, uid, sent_at, attempt,
                                     span)
                continue
            self.collector.record(sent_at, deadline, interaction,
                                  False, "timeout")
            if span is not None:
                self._spans.finish(span, ok=False, error="timeout")
        self._arm_reaper()

    # ------------------------------------------------------------------
    # per-user session continuity (mirrors RBE._update_session)
    # ------------------------------------------------------------------
    def _update_session(self, uid: int, interaction: Interaction,
                        response: Response) -> None:
        data = response.data
        if data is None:
            return
        session = self._sessions.get(uid)
        if session is None:
            if len(self._sessions) >= _SESSION_CACHE_MAX:
                self._sessions.pop(next(iter(self._sessions)))
            session = self._sessions[uid] = {}
        if data.get("c_id") is not None:
            session["c_id"] = data["c_id"]
        if data.get("sc_id") is not None:
            session["sc_id"] = data["sc_id"]
        items = data.get("items")
        if items:
            chosen = self._session_rng.choice(items)
            session["i_id"] = (chosen[0] if isinstance(chosen, tuple)
                               else chosen)
        if interaction is Interaction.BUY_CONFIRM:
            session.pop("sc_id", None)
            session.pop("i_id", None)
