"""Single-decree classic Paxos: the textbook synod protocol.

A standalone implementation of one consensus instance with the three
canonical roles, used as the reference point for the multi-decree engine
(and as an executable specification in the test suite):

* :class:`SynodProposer` -- phase 1a/2a with the highest-numbered-value
  adoption rule;
* :class:`SynodAcceptor` -- promises and votes, durable before replying;
* :class:`SynodLearner` -- majority vote counting.

Safety (validated by property tests): at most one value is ever chosen,
and it is one of the proposed values -- regardless of proposer races,
message delays, and acceptor crash/recovery.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.paxos.messages import NULL_BALLOT, Ballot
from repro.paxos.quorum import classic_quorum
from repro.sim.core import Simulator
from repro.sim.disk import WriteAheadLog
from repro.sim.node import Node

SYNOD_PORT = "synod"


class SynodAcceptor:
    """One acceptor: ``(promised, vballot, vvalue)``, durable via a WAL."""

    def __init__(self, node: Node, wal: Optional[WriteAheadLog] = None):
        self.node = node
        self.wal = wal if wal is not None else WriteAheadLog(
            node.sim, node.disk, name=f"{node.name}-synod-wal", node=node)
        self.promised: Ballot = NULL_BALLOT
        self.vballot: Ballot = NULL_BALLOT
        self.vvalue: Any = None
        self._restore()
        node.handle(SYNOD_PORT, self._on_message)

    def _restore(self) -> None:
        for kind, ballot, value in self.wal.entries():
            if kind == "promise" and ballot > self.promised:
                self.promised = ballot
            elif kind == "vote" and ballot > self.vballot:
                self.vballot = ballot
                self.vvalue = value
                self.promised = max(self.promised, ballot)

    # ------------------------------------------------------------------
    def _on_message(self, message, src: str) -> None:
        kind = message[0]
        if kind == "prepare":
            self._on_prepare(message[1], src)
        elif kind == "accept":
            self._on_accept(message[1], message[2], src)

    def _on_prepare(self, ballot: Ballot, src: str) -> None:
        if ballot <= self.promised:
            self.node.send(src, SYNOD_PORT,
                           ("nack", ballot, self.promised), 0.0002)
            return
        self.promised = ballot

        def durable(_event) -> None:
            self.node.send(src, SYNOD_PORT,
                           ("promise", ballot, self.vballot, self.vvalue),
                           0.0003)

        self.wal.append(("promise", ballot, None), 0.0002).add_callback(durable)

    def _on_accept(self, ballot: Ballot, value: Any, src: str) -> None:
        if ballot < self.promised:
            self.node.send(src, SYNOD_PORT,
                           ("nack", ballot, self.promised), 0.0002)
            return
        self.promised = ballot
        self.vballot = ballot
        self.vvalue = value

        def durable(_event) -> None:
            self.node.send(src, SYNOD_PORT, ("accepted", ballot, value),
                           0.0003)
            for learner in self.node.network.node_names():
                if learner != src:
                    self.node.send(learner, "synod-learn",
                                   ("accepted", ballot, value), 0.0003)

        self.wal.append(("vote", ballot, value), 0.0003).add_callback(durable)


class SynodLearner:
    """Counts accepted votes; fires a callback when a value is chosen."""

    def __init__(self, node: Node, n_acceptors: int,
                 on_chosen: Optional[Callable[[Any], None]] = None):
        self.node = node
        self.quorum = classic_quorum(n_acceptors)
        self.on_chosen = on_chosen
        self.chosen: Any = None
        self.chosen_ballot: Optional[Ballot] = None
        self._votes: Dict[Ballot, Set[str]] = {}
        self._values: Dict[Ballot, Any] = {}
        node.handle("synod-learn", self._on_message)

    def _on_message(self, message, src: str) -> None:
        kind, ballot, value = message
        if kind != "accepted":
            return
        voters = self._votes.setdefault(ballot, set())
        voters.add(src)
        self._values[ballot] = value
        if len(voters) >= self.quorum and self.chosen_ballot is None:
            self.chosen = value
            self.chosen_ballot = ballot
            if self.on_chosen is not None:
                self.on_chosen(value)


class SynodProposer:
    """Drives one proposal to a decision, retrying with higher ballots.

    ``propose(value)`` is a process body; the return value is the value
    actually *chosen* (possibly another proposer's, per the adoption
    rule).
    """

    def __init__(self, node: Node, proposer_id: int, acceptors: List[str],
                 round_trip_timeout_s: float = 0.05):
        self.node = node
        self.proposer_id = proposer_id
        self.acceptors = list(acceptors)
        self.quorum = classic_quorum(len(acceptors))
        self.timeout_s = round_trip_timeout_s
        self._round = 0
        self._replies = node.sim.channel()
        node.handle(SYNOD_PORT, lambda message, src:
                    self._replies.put((message, src)))

    # ------------------------------------------------------------------
    def propose(self, value: Any):
        """Generator: run phases 1 and 2 until a value is decided."""
        sim = self.node.sim
        while True:
            self._round += 1
            ballot = Ballot(self._round, self.proposer_id)
            # ---- phase 1 -------------------------------------------------
            self._replies.drain()
            for acceptor in self.acceptors:
                self.node.send(acceptor, SYNOD_PORT, ("prepare", ballot),
                               0.0002)
            promises: List[Tuple[Ballot, Any]] = []
            deadline = sim.now + self.timeout_s
            while len(promises) < self.quorum and sim.now < deadline:
                reply = yield from self._next_reply(deadline)
                if reply is None:
                    break
                message, _src = reply
                if message[0] == "promise" and message[1] == ballot:
                    promises.append((message[2], message[3]))
                elif message[0] == "nack" and message[1] == ballot:
                    self._round = max(self._round, message[2].round)
            if len(promises) < self.quorum:
                yield sim.timeout(self.timeout_s * (0.5 + 0.1 * self.proposer_id))
                continue
            # Adoption rule: the highest-ballot accepted value, if any.
            top = max(promises, key=lambda pair: pair[0])
            proposal = top[1] if top[0] != NULL_BALLOT else value
            # ---- phase 2 -------------------------------------------------
            for acceptor in self.acceptors:
                self.node.send(acceptor, SYNOD_PORT,
                               ("accept", ballot, proposal), 0.0003)
            accepted = 0
            deadline = sim.now + self.timeout_s
            while accepted < self.quorum and sim.now < deadline:
                reply = yield from self._next_reply(deadline)
                if reply is None:
                    break
                message, _src = reply
                if (message[0] == "accepted" and message[1] == ballot):
                    accepted += 1
                elif message[0] == "nack" and message[1] == ballot:
                    self._round = max(self._round, message[2].round)
            if accepted >= self.quorum:
                return proposal
            yield sim.timeout(self.timeout_s * (0.5 + 0.1 * self.proposer_id))

    def _next_reply(self, deadline: float):
        sim = self.node.sim
        remaining = deadline - sim.now
        if remaining <= 0:
            return None  # before get(): a queued getter takes a reply
        getter = self._replies.get()
        timer = sim.call_after(
            remaining, lambda ev=getter: None if ev.triggered
            else ev.succeed(None))
        reply = yield getter
        timer.cancel()
        return reply
