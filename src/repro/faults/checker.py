"""Mechanical safety oracle for the replicated queue.

The paper argues Treplica keeps the bookstore consistent across crashes
but verifies it only end-to-end (no order was lost, no page was wrong).
This module asserts the underlying invariants *mechanically*, from the
safety audit -- the events of :attr:`SafetyChecker.KINDS` a
:class:`~repro.sim.trace.Tracer` takes from the event log during a run
-- so any faultload -- crash, partition, or nemesis misbehaviour --
can be checked for safety, not just for recovered throughput:

* **agreement** -- no two replicas decide different values for one
  consensus instance (the Paxos safety property);
* **delivery order** -- each replica incarnation hands instances to the
  application in strictly increasing order, and any instance delivered
  by two replicas carries the same batch (one cluster-wide total order);
* **no duplicates** -- no command uid enters a replica's delivery
  stream twice (the queue's exactly-once contract);
* **durability** -- a command whose local client saw it complete
  ("acked") was decided, and no replica's delivery stream passed over
  its instance without it (no client-acked command is lost across
  crash + nemesis);
* **complete audit** -- an audit truncated at its bound is itself a
  violation: the invariants above cannot be judged on a prefix;
* **transaction atomicity** -- on sharded runs (:mod:`repro.shard`),
  every cross-shard 2PC reaches at most one outcome, and a commit is
  only ever decided after a yes vote from every participant shard;
* **accept consistency** -- on runs with storage faults (the engine
  emits ``paxos.accept`` only then), no acceptor votes twice in
  the same ballot for different values.  A replica whose disk silently
  lost a vote -- an fsync lie or a corrupted log suffix that escaped
  the scrub-and-fence path -- shows up here as a *two-faced acceptor*,
  so storage-level amnesia is caught mechanically, not by luck.

On sharded deployments each consensus group is independent, so the
instance-number spaces overlap by design: all per-instance checks are
keyed by the replica-name shard prefix (``s1.replica2`` -> group
``s1``), never across groups.

Usage::

    sim.event_log = log = EventLog(sim)   # before components are built
    audit = Tracer()
    log.subscribe(SafetyChecker.AUDIT_KINDS, audit.take)
    ...run the experiment...
    SafetyChecker(audit).assert_ok()

The events come from :meth:`repro.paxos.engine.PaxosEngine._decide`
(``paxos.decide``), the watermark advance (``paxos.deliver``, and
``paxos.transfer`` for checkpoint-transfer skips), the Treplica applier
(``treplica.ack``), and the 2PC participant and coordinator
(``txn.vote``, ``txn.decide``, ``txn.resolve``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.sim.trace import Event, Tracer

#: Sharded replica names carry a ``s<g>.`` prefix (repro.shard); the
#: prefix identifies the consensus group an event's node belongs to.
_SHARD_PREFIX = re.compile(r"^(s\d+)\.")


def _group_of(node: str) -> str:
    """The consensus group of an event's node ('' = the single group)."""
    match = _SHARD_PREFIX.match(node)
    return match.group(1) if match else ""


class SafetyViolation(AssertionError):
    """Raised by :meth:`SafetyChecker.assert_ok` when invariants fail."""


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough detail to debug the run."""

    kind: str    # agreement | deliver-agreement | order | duplicate
                 # | lost-ack | accept-conflict | txn-* | trace-truncated
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


class SafetyChecker:
    """Checks consensus/queue safety invariants over the safety audit."""

    #: the event kinds the checker reads.  ``paxos.accept`` is only
    #: emitted when a storage nemesis is armed, so listing it here costs
    #: nothing on clean runs.
    KINDS = ("paxos.decide", "paxos.deliver", "paxos.transfer",
             "treplica.ack", "paxos.accept", "txn.vote", "txn.decide",
             "txn.resolve")
    #: the safety audit a deployment keeps: what the checker reads, plus
    #: node lifecycle and message-fault events to debug a violation by.
    AUDIT_KINDS = KINDS + ("node.crash", "node.restart", "watchdog.tripped",
                           "nemesis.dropped", "nemesis.duplicated",
                           "nemesis.delayed")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    # ------------------------------------------------------------------
    def violations(self, max_violations: int = 50) -> List[Violation]:
        """All invariant breaches found in the audit (bounded)."""
        found: List[Violation] = []
        if self._tracer.dropped:
            found.append(Violation("trace-truncated", (
                f"the audit trail dropped {self._tracer.dropped} events "
                f"past its bound; the invariants cannot be judged on a "
                f"prefix")))
        found += self._check_agreement("paxos.decide")
        found += self._check_agreement("paxos.deliver")
        found += self._check_delivery_streams()
        found += self._check_cross_incarnation_duplicates()
        found += self._check_acked_durability()
        found += self._check_transactions()
        found += self._check_accept_consistency()
        return found[:max_violations]

    def assert_ok(self) -> None:
        violations = self.violations()
        if violations:
            summary = "\n  ".join(str(v) for v in violations)
            raise SafetyViolation(
                f"{len(violations)} safety violation(s):\n  {summary}")

    @property
    def ok(self) -> bool:
        return not self.violations(max_violations=1)

    # ------------------------------------------------------------------
    # agreement: one value per instance, cluster-wide
    # ------------------------------------------------------------------
    def _check_agreement(self, kind: str) -> List[Violation]:
        chosen: Dict[Tuple[str, int], Tuple[Tuple[str, ...], str]] = {}
        violations = []
        for event in self._tracer.select(kind):
            instance, key = event["instance"], event["key"]
            first = chosen.get((_group_of(event.node), instance))
            if first is None:
                chosen[(_group_of(event.node), instance)] = (key, event.node)
            elif first[0] != key:
                label = ("agreement" if kind == "paxos.decide"
                         else "deliver-agreement")
                violations.append(Violation(label, (
                    f"instance {instance}: {first[1]} has {first[0]!r} "
                    f"but {event.node} has {key!r} (t={event.time:.4f})")))
        return violations

    # ------------------------------------------------------------------
    # per-incarnation delivery: strictly increasing, no duplicate uids
    # ------------------------------------------------------------------
    def _delivery_streams(self) -> Dict[Tuple[str, int], List[Event]]:
        streams: Dict[Tuple[str, int], List[Event]] = {}
        for event in self._tracer.select("paxos.deliver", "paxos.transfer"):
            streams.setdefault((event.node, event["inc"]), []).append(event)
        return streams

    def _check_delivery_streams(self) -> List[Violation]:
        violations = []
        for (node, inc), events in self._delivery_streams().items():
            who = f"{node}#inc{inc}"
            last = None
            seen_uids: Set[str] = set()
            for event in events:
                if event.kind == "paxos.transfer":
                    upto = event["upto"]
                    last = max(last, upto) if last is not None else upto
                    continue
                instance = event["instance"]
                if last is not None and instance <= last:
                    violations.append(Violation("order", (
                        f"{who} delivered instance {instance} after "
                        f"{last} (t={event.time:.4f})")))
                last = instance
                for uid in event["fresh"]:
                    if uid in seen_uids:
                        violations.append(Violation("duplicate", (
                            f"{who} delivered uid {uid!r} twice "
                            f"(second time in instance {instance}, "
                            f"t={event.time:.4f})")))
                    seen_uids.add(uid)
        return violations

    def _check_cross_incarnation_duplicates(self) -> List[Violation]:
        """Exactly-once must survive reboots, not just incarnations.

        Consensus may decide the same uid in several instances (a fast
        collision makes the coordinator re-propose the losers), and the
        delivery dedup suppresses every repeat.  But that dedup memory
        must be durable: if a replica checkpoints between the first
        delivery and a repeat, reboots, and then delivers the repeat as
        *fresh*, the command is applied twice.  Delivering a uid fresh
        at the *same* instance across incarnations is legitimate replay
        of a pre-checkpoint suffix; two *different* instances is the
        double-apply.
        """
        violations = []
        first_at: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for (node, inc), events in sorted(self._delivery_streams().items()):
            for event in events:
                if event.kind == "paxos.transfer":
                    continue
                instance = event["instance"]
                for uid in event["fresh"]:
                    prior = first_at.setdefault((node, uid),
                                                (instance, inc))
                    if prior[0] != instance:
                        violations.append(Violation("duplicate", (
                            f"{node} delivered uid {uid!r} fresh at "
                            f"instance {prior[0]} (inc {prior[1]}) and "
                            f"again at instance {instance} (inc {inc}, "
                            f"t={event.time:.4f})")))
        return violations

    # ------------------------------------------------------------------
    # durability of client-acked commands
    # ------------------------------------------------------------------
    def _check_acked_durability(self) -> List[Violation]:
        # Everything here is scoped to one consensus group: decisions,
        # delivery summaries, and acks are bucketed by the node's
        # shard prefix (one shared bucket on unsharded runs).
        decided_uids: Dict[str, Set[str]] = {}
        for event in self._tracer.select("paxos.decide"):
            decided_uids.setdefault(_group_of(event.node),
                                    set()).update(event["key"])

        # Per incarnation: delivered instances, their range, and how far
        # a checkpoint transfer skipped (instances at or below it are
        # covered by the installed snapshot, not lost).
        summaries: Dict[str, List[tuple]] = {}
        for (node, inc), events in self._delivery_streams().items():
            delivered: Set[int] = set()
            skipped_upto = -1
            for event in events:
                if event.kind == "paxos.transfer":
                    skipped_upto = max(skipped_upto, event["upto"])
                else:
                    delivered.add(event["instance"])
            if delivered:
                summaries.setdefault(_group_of(node), []).append(
                    (f"{node}#inc{inc}", delivered,
                     min(delivered), max(delivered), skipped_upto))

        violations = []
        acked: Dict[Tuple[str, str], int] = {}
        for event in self._tracer.select("treplica.ack"):
            acked.setdefault((_group_of(event.node), event["uid"]),
                             event["instance"])
        for (group, uid), instance in sorted(acked.items()):
            if uid not in decided_uids.get(group, set()):
                violations.append(Violation("lost-ack", (
                    f"uid {uid!r} was acked at instance {instance} "
                    f"but never appears in any decided batch")))
                continue
            for who, delivered, low, high, skipped_upto in \
                    summaries.get(group, []):
                if low <= instance <= high and instance > skipped_upto \
                        and instance not in delivered:
                    violations.append(Violation("lost-ack", (
                        f"{who} delivered past instance {instance} "
                        f"without it, losing acked uid {uid!r}")))
        return violations

    # ------------------------------------------------------------------
    # acceptor vote consistency (storage-fault runs only; no-op otherwise)
    # ------------------------------------------------------------------
    def _check_accept_consistency(self) -> List[Violation]:
        # An acceptor may legitimately re-vote the same value in a ballot
        # after its lost vote was scrubbed and re-proposed; what Paxos
        # forbids is one acceptor's signature on two *different* values
        # for the same (instance, ballot).
        votes: Dict[tuple, Tuple[Tuple[str, ...], float]] = {}
        violations = []
        for event in self._tracer.select("paxos.accept"):
            ident = (_group_of(event.node), event.node,
                     event["instance"],
                     (event["round"], event["proposer"], event["fast"]))
            key = event["key"]
            first = votes.get(ident)
            if first is None:
                votes[ident] = (key, event.time)
            elif first[0] != key:
                violations.append(Violation("accept-conflict", (
                    f"{event.node} voted {first[0]!r} (t={first[1]:.4f}) "
                    f"and then {key!r} (t={event.time:.4f}) for instance "
                    f"{event['instance']} in ballot round "
                    f"{event['round']}.{event['proposer']} -- durable "
                    f"acceptor state was lost")))
        return violations

    # ------------------------------------------------------------------
    # cross-shard 2PC atomicity (sharded runs only; no-op otherwise)
    # ------------------------------------------------------------------
    def _check_transactions(self) -> List[Violation]:
        yes_votes: Dict[str, Set[int]] = {}
        decisions: Dict[str, Tuple[str, str]] = {}
        violations = []
        for event in self._tracer.select("txn.vote", "txn.decide",
                                         "txn.resolve"):
            if event.kind == "txn.vote":
                if event["vote"]:
                    yes_votes.setdefault(event["tx"], set()).add(
                        event["shard"])
            else:
                tx, outcome = event["tx"], event["outcome"]
                first = decisions.get(tx)
                if first is None:
                    decisions[tx] = (outcome, event.node)
                elif first[0] != outcome:
                    violations.append(Violation("txn-decision", (
                        f"tx {tx!r}: {first[1]} decided {first[0]} but "
                        f"{event.node} decided {outcome} "
                        f"(t={event.time:.4f})")))
                    continue
                if outcome == "commit":
                    missing = [shard for shard in event["shards"]
                               if shard not in yes_votes.get(tx, set())]
                    if missing:
                        violations.append(Violation("txn-commit", (
                            f"tx {tx!r} committed without a yes vote "
                            f"from shard(s) {missing} (t={event.time:.4f})")))
        return violations
