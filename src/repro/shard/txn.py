"""Deterministic two-phase commit across shard groups.

The only cross-shard write in the TPC-W mix is a buy-confirm whose cart
holds items whose *stock* another shard owns.  The home shard's facade
runs a textbook 2PC, but every phase is **ordered through the
participating groups' own logs** (the actions below travel through
Treplica's totally ordered ``execute``), so the protocol inherits the
groups' crash tolerance: a participant replica that crashes mid-prepare
loses nothing that its group's log did not already order.

Protocol (coordinator = the home replica serving the interaction):

1. ``prepare`` to one replica of each foreign owner group, carrying the
   exact stock deltas.  The participant orders a :class:`TxPrepare`
   through its group (applying the deltas and recording them against the
   tx id) and replies with its vote.  No reply within
   ``txn_timeout_s`` -> retry against the group's next replica, up to
   ``txn_max_retries``; exhausted retries count as a *no* vote.
2. All yes -> the home shard orders its own commit record (the local
   :class:`~repro.tpcw.actions.BuyConfirm` with the foreign items
   excluded), then broadcasts ``commit`` to every replica of each
   participant group.  Any no -> broadcast ``abort``, which undoes the
   recorded deltas.  Decisions are idempotent (keyed by tx id), so the
   broadcast needs no ack tracking: any one live replica per group
   suffices to drive the group's log to the decision.

The coordinator emits ``txn`` trace events (``vote`` at participants,
``decision`` at the coordinator) that
:class:`repro.faults.checker.SafetyChecker` audits: one decision per
transaction, and no commit without a yes vote from every participant
shard.

**Termination protocol** (coordinator-crash tolerance).  A coordinator
that crashes between ``prepare`` and ``decide`` -- or whose decision
broadcast never reaches a participant group -- would otherwise leave the
prepared deltas pending forever.  Three pieces close that window:

* the home shard's :class:`~repro.tpcw.actions.BuyConfirm` commit record
  is stamped with the tx id and writes a durable outcome into
  ``state.txn_decisions`` when it orders;
* :class:`TxResolve`, ordered through the **home** group's log, returns
  the recorded outcome or -- when there is none -- records *presumed
  abort*.  Total order against the BuyConfirm makes the race safe: if
  the resolve orders first, the late commit record sees the abort and
  refuses to order;
* every participant replica runs an **orphan watcher**: a pending tx
  older than ``txn_orphan_timeout_s`` (volatile first-seen clock, reset
  per incarnation) is resolved by querying the home group (the shard is
  parsed from the tx id) and ordering the outcome through the
  participant's own log.  Resolution is idempotent, so concurrent
  resolvers -- or a resolver racing the coordinator's own late
  broadcast -- converge on the same outcome.

Resolvers emit the same ``decision`` trace events as the coordinator
(scoped to their own shard), so the safety checker cross-audits the
termination protocol against the coordinator's decision: any
disagreement is a ``txn-decision`` violation.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import registry_of
from repro.obs.trace import current_trace, spans_of
from repro.sim.node import Node
from repro.sim.trace import log_of
from repro.treplica.actions import Action

TXN_PORT = "txn"
TXN_REPLY_PORT = "txn-reply"
TXN_RESOLVE_REPLY_PORT = "txn-resolve-reply"

#: Sentinel delivered when the prepare timeout fires first.
_TIMED_OUT = object()


def home_shard_of(tx_id: str) -> Optional[int]:
    """The coordinating (home) shard encoded in a tx id.

    Ids look like ``s0.replica2.3:tx7`` (coordinator node name dot
    incarnation); ``None`` when the name carries no shard prefix."""
    if not tx_id.startswith("s"):
        return None
    head = tx_id[1:].split(".", 1)[0]
    try:
        return int(head)
    except ValueError:
        return None


# ======================================================================
# replicated actions (ordered through the participant group's log)
# ======================================================================
class TxPrepare(Action):
    """Phase 1 on a participant: take the stock deltas provisionally.

    Stock never refuses a sale (the spec's restock-by-21 rule), so a
    prepare that reaches the log always votes yes; the recorded *net*
    deltas make an abort an exact undo.  Re-prepares (coordinator
    retries) are idempotent.
    """

    cpu_cost_s = 0.0002
    size_mb = 0.0004

    def __init__(self, tx_id: str, deltas: Tuple[Tuple[int, int], ...]):
        self.tx_id = tx_id
        self.deltas = tuple(deltas)

    def apply(self, app):
        state = app.state
        if self.tx_id in state.pending_txns:
            return True  # retried prepare: already holding the deltas
        if self.tx_id in state.finished_txns:
            return True  # decision already ordered; vote is moot
        applied = []
        for i_id, qty in self.deltas:
            item = state.items.get(i_id)
            if item is None:
                continue
            if item.i_stock - qty < 10:
                item.i_stock = item.i_stock - qty + 21  # spec restock rule
                applied.append((i_id, qty - 21))        # net delta taken
            else:
                item.i_stock -= qty
                applied.append((i_id, qty))
        state.pending_txns[self.tx_id] = tuple(applied)
        return True


class TxCommit(Action):
    """Phase 2 (commit): the provisional deltas become permanent."""

    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, tx_id: str):
        self.tx_id = tx_id

    def apply(self, app):
        state = app.state
        state.pending_txns.pop(self.tx_id, None)
        state.finished_txns.add(self.tx_id)
        return True


class TxAbort(Action):
    """Phase 2 (abort): undo exactly the recorded net deltas."""

    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, tx_id: str):
        self.tx_id = tx_id

    def apply(self, app):
        state = app.state
        applied = state.pending_txns.pop(self.tx_id, None)
        state.finished_txns.add(self.tx_id)
        if applied:
            for i_id, delta in applied:
                item = state.items.get(i_id)
                if item is not None:
                    item.i_stock += delta
        return True


class TxResolve(Action):
    """Termination protocol, home-group side: fix a tx's outcome.

    Ordered through the *home* group's log, so it is totally ordered
    against the tx's own :class:`~repro.tpcw.actions.BuyConfirm` commit
    record.  Returns the recorded outcome; when there is none yet the
    coordinator can no longer commit (the commit record checks the
    decision table before ordering), so *presumed abort* is recorded
    and returned.
    """

    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, tx_id: str):
        self.tx_id = tx_id

    def apply(self, app):
        state = app.state
        if self.tx_id not in state.txn_decisions:
            state.txn_decisions[self.tx_id] = False  # presumed abort
        return "commit" if state.txn_decisions[self.tx_id] else "abort"


# ======================================================================
# per-replica protocol endpoints
# ======================================================================
class TxnParticipant:
    """Serves 2PC messages by ordering them through the local group.

    When given the full group map and an orphan timeout, it also runs
    the termination protocol's participant side: a watcher process (one
    per replica incarnation, volatile first-seen clocks) that resolves
    pending transactions whose decision never arrived by asking the
    home group and ordering the outcome through its own log.
    """

    def __init__(self, node: Node, runtime, shard: int,
                 group_names: Optional[List[List[str]]] = None,
                 resolve_timeout_s: float = 1.0,
                 resolve_retries: int = 2,
                 orphan_timeout_s: Optional[float] = None):
        self.node = node
        self.runtime = runtime
        self.shard = shard
        self._groups = group_names
        self._resolve_timeout_s = resolve_timeout_s
        self._resolve_retries = resolve_retries
        self._orphan_timeout_s = orphan_timeout_s
        self._resolve_waiters: Dict[str, object] = {}
        self._resolving: set = set()
        self._spans = spans_of(node.sim)
        self._events = log_of(node.sim)
        self.stats = {"resolved": 0}
        registry_of(node.sim).register_counts(
            self.stats, {"shard.txn_resolved": "resolved"})

    def start(self) -> None:
        self.node.handle(TXN_PORT, self._on_message)
        if self._groups is not None and self._orphan_timeout_s is not None:
            self.node.handle(TXN_RESOLVE_REPLY_PORT, self._on_resolve_reply)
            self.node.spawn(self._watch(), name="txn-orphan-watcher")

    def _on_message(self, payload, src: str) -> None:
        self.node.spawn(self._serve(payload, src), name="txn-participant")

    def _serve(self, payload, src: str):
        kind, tx_id, deltas = payload
        if not self.runtime.ready:
            return  # recovering: silence makes the coordinator retry
        if kind == "prepare":
            span = None
            if self._spans is not None:
                # The tx id links this participant-side span to the
                # coordinator's txn.prepare span in the trace view.
                span = self._spans.begin("txn.participant", self.node.name,
                                         tx=tx_id, shard=self.shard)
            vote = yield from self.runtime.execute(TxPrepare(tx_id, deltas))
            if span is not None:
                self._spans.finish(span, vote=bool(vote))
            if self._events is not None:
                self._events.emit("txn.vote", self.node.name, tx=tx_id,
                                  shard=self.shard, vote=bool(vote))
            self.node.send(src, TXN_REPLY_PORT,
                           (tx_id, self.shard, bool(vote)), size_mb=0.0002)
        elif kind == "resolve":
            # Home-group side of the termination protocol: order the
            # resolve through *this* group's log and report the outcome.
            outcome = yield from self.runtime.execute(TxResolve(tx_id))
            self.node.send(src, TXN_RESOLVE_REPLY_PORT, (tx_id, outcome),
                           size_mb=0.0002)
        elif kind == "commit":
            yield from self.runtime.execute(TxCommit(tx_id))
        else:  # abort
            yield from self.runtime.execute(TxAbort(tx_id))

    # ------------------------------------------------------------------
    # orphan watcher (participant side of the termination protocol)
    # ------------------------------------------------------------------
    def _on_resolve_reply(self, payload, src: str) -> None:
        tx_id, outcome = payload
        waiter = self._resolve_waiters.pop(tx_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(outcome)

    def _watch(self):
        sim = self.node.sim
        first_seen: Dict[str, float] = {}
        poll = max(self._orphan_timeout_s / 4.0, 0.05)
        while True:
            yield sim.timeout(poll)
            if not self.runtime.ready:
                first_seen.clear()  # recovering: restart the clocks
                continue
            pending = self.runtime.app.state.pending_txns
            for tx_id in [t for t in first_seen if t not in pending]:
                del first_seen[tx_id]
            now = sim.now
            for tx_id in sorted(pending):
                first_seen.setdefault(tx_id, now)
            for tx_id in sorted(first_seen):
                if now - first_seen[tx_id] < self._orphan_timeout_s:
                    continue
                if tx_id in self._resolving:
                    continue
                home = home_shard_of(tx_id)
                if home is None or home == self.shard \
                        or not 0 <= home < len(self._groups):
                    continue  # malformed id: nothing to ask
                self._resolving.add(tx_id)
                self.node.spawn(self._resolve(tx_id, home),
                                name="txn-resolve")

    def _resolve(self, tx_id: str, home: int):
        sim = self.node.sim
        names = self._groups[home]
        outcome = None
        for attempt in range(self._resolve_retries + 1):
            target = names[attempt % len(names)]
            waiter = sim.event()
            self._resolve_waiters[tx_id] = waiter
            self.node.send(target, TXN_PORT, ("resolve", tx_id, None),
                           size_mb=0.0002)
            timer = sim.call_after(
                self._resolve_timeout_s,
                lambda ev=waiter: None if ev.triggered
                else ev.succeed(_TIMED_OUT))
            reply = yield waiter
            timer.cancel()
            self._resolve_waiters.pop(tx_id, None)
            if reply is not _TIMED_OUT:
                outcome = reply
                break
        if outcome is None or not self.runtime.ready:
            # Home group unreachable (or we started recovering): give up
            # for now; the watcher keeps the tx on its clock and retries.
            self._resolving.discard(tx_id)
            return
        if self._spans is not None:
            self._spans.instant("txn.resolve", self.node.name, tx=tx_id,
                                shard=self.shard, outcome=outcome)
        if self._events is not None:
            self._events.emit("txn.resolve", self.node.name, tx=tx_id,
                              shard=self.shard, outcome=outcome,
                              shards=(self.shard,))
        self.stats["resolved"] += 1
        if outcome == "commit":
            yield from self.runtime.execute(TxCommit(tx_id))
        else:
            yield from self.runtime.execute(TxAbort(tx_id))
        self._resolving.discard(tx_id)


class TxnCoordinator:
    """The home replica's 2PC driver (one per replica incarnation)."""

    def __init__(self, node: Node, shard: int,
                 group_names: List[List[str]],
                 timeout_s: float, max_retries: int):
        self.node = node
        self.shard = shard
        self._groups = group_names   # shard -> replica node names
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._waiters: Dict[Tuple[str, int], object] = {}
        self._tx_seq = itertools.count(1)
        self._spans = spans_of(node.sim)
        self._events = log_of(node.sim)
        self.stats = {"started": 0, "committed": 0, "aborted": 0,
                      "retries": 0}
        registry_of(node.sim).register_counts(self.stats, {
            f"shard.txn_{key}": key for key in self.stats})

    def start(self) -> None:
        self.node.handle(TXN_REPLY_PORT, self._on_reply)

    def new_tx_id(self) -> str:
        return (f"{self.node.name}.{self.node.incarnation}"
                f":tx{next(self._tx_seq)}")

    # ------------------------------------------------------------------
    def _on_reply(self, payload, src: str) -> None:
        tx_id, shard, vote = payload
        waiter = self._waiters.pop((tx_id, shard), None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(vote)

    def prepare(self, tx_id: str,
                parts: Dict[int, Tuple[Tuple[int, int], ...]]):
        """Generator: phase 1 against every participant shard, in shard
        order (deterministic).  Returns True iff all voted yes."""
        self.stats["started"] += 1
        span = None
        if self._spans is not None:
            span = self._spans.begin("txn.prepare", self.node.name,
                                     trace=current_trace(self.node.sim),
                                     tx=tx_id, shards=tuple(sorted(parts)))
        all_yes = True
        for shard in sorted(parts):
            vote = yield from self._prepare_one(tx_id, shard, parts[shard])
            if not vote:
                all_yes = False
        if span is not None:
            self._spans.finish(span, ok=all_yes)
        return all_yes

    def _prepare_one(self, tx_id: str, shard: int,
                     deltas: Tuple[Tuple[int, int], ...]):
        sim = self.node.sim
        names = self._groups[shard]
        for attempt in range(self._max_retries + 1):
            if attempt:
                self.stats["retries"] += 1
            target = names[attempt % len(names)]
            waiter = sim.event()
            self._waiters[(tx_id, shard)] = waiter
            self.node.send(target, TXN_PORT, ("prepare", tx_id, deltas),
                           size_mb=0.0004)
            timer = sim.call_after(
                self._timeout_s,
                lambda ev=waiter: None if ev.triggered
                else ev.succeed(_TIMED_OUT))
            vote = yield waiter
            timer.cancel()
            self._waiters.pop((tx_id, shard), None)
            if vote is not _TIMED_OUT:
                return bool(vote)
        return False  # participant group unreachable: counts as a no

    def decide(self, tx_id: str,
               parts: Dict[int, Tuple[Tuple[int, int], ...]],
               commit: bool) -> None:
        """Phase 2: broadcast the decision to every participant replica
        (idempotent at the log level, so no ack tracking is needed)."""
        outcome = "commit" if commit else "abort"
        self.stats["committed" if commit else "aborted"] += 1
        if self._spans is not None:
            self._spans.instant("txn.decide", self.node.name,
                                trace=current_trace(self.node.sim),
                                tx=tx_id, outcome=outcome)
        if self._events is not None:
            self._events.emit("txn.decide", self.node.name, tx=tx_id,
                              outcome=outcome, shards=tuple(sorted(parts)))
        for shard in sorted(parts):
            for name in self._groups[shard]:
                self.node.send(name, TXN_PORT, (outcome, tx_id, None),
                               size_mb=0.0002)
