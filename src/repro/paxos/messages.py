"""Wire types for the Paxos engine.

All messages are plain frozen dataclasses; ``size_mb()`` estimates their
wire footprint so the simulated network charges realistic transfer costs
(batches dominate; control fields cost a few hundred bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

CONTROL_MB = 0.0002  # ~200 bytes of headers per control message


@dataclass(frozen=True)
class Ballot:
    """A round identifier, totally ordered by ``(round, proposer)``.

    ``fast`` marks fast rounds; it does not participate in the ordering
    because a proposer never reuses a round number for both kinds.
    """

    round: int
    proposer: int
    fast: bool = False

    def __lt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) < (other.round, other.proposer)

    def __le__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) <= (other.round, other.proposer)

    def __gt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) > (other.round, other.proposer)

    def __ge__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) >= (other.round, other.proposer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ballot):
            return NotImplemented
        return (self.round, self.proposer, self.fast) == (
            other.round, other.proposer, other.fast)

    def __hash__(self) -> int:
        return hash((self.round, self.proposer, self.fast))


#: The "no ballot yet" sentinel; smaller than every real ballot.
NULL_BALLOT = Ballot(-1, -1)


@dataclass(frozen=True)
class Command:
    """One client operation to be totally ordered.

    ``uid`` is globally unique (replica id + local counter); delivery is
    deduplicated on it, which makes retransmission after leader changes or
    fast-round collisions safe.
    """

    uid: str
    payload: object
    size_mb: float = 0.0004

    def __repr__(self) -> str:
        return f"Command({self.uid})"


@dataclass(frozen=True)
class Batch:
    """A consensus value: an ordered group of commands (possibly empty).

    Empty batches are no-ops used to fill gaps.  Equality for vote counting
    uses the command uid tuple.
    """

    commands: Tuple[Command, ...] = ()

    @cached_property
    def key(self) -> Tuple[str, ...]:
        return tuple(command.uid for command in self.commands)

    @property
    def is_noop(self) -> bool:
        return not self.commands

    @cached_property
    def _size_mb(self) -> float:
        return CONTROL_MB + sum(command.size_mb for command in self.commands)

    def size_mb(self) -> float:
        return self._size_mb

    def __len__(self) -> int:
        return len(self.commands)


NOOP = Batch()


def merge_batches(batches) -> Batch:
    """Deterministically merge competing batches (collision recovery).

    Commands are deduplicated by uid and ordered by uid so every
    coordinator computes the same merged value.
    """
    seen: Dict[str, Command] = {}
    for batch in batches:
        for command in batch.commands:
            seen.setdefault(command.uid, command)
    return Batch(tuple(seen[uid] for uid in sorted(seen)))


# ----------------------------------------------------------------------
# protocol messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Prepare:
    """Phase 1a for every instance >= ``from_instance`` (leader election)."""

    ballot: Ballot
    from_instance: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class Promise:
    """Phase 1b: acceptor state for all instances >= the prepare's start."""

    ballot: Ballot
    from_instance: int
    accepted: Tuple[Tuple[int, Ballot, Batch], ...]  # (instance, vrnd, vval)
    decided_watermark: int

    def size_mb(self) -> float:
        return CONTROL_MB + sum(v.size_mb() for _i, _b, v in self.accepted)


@dataclass(frozen=True)
class PrepareInstance:
    """Phase 1a for a single instance (fast-round collision recovery)."""

    ballot: Ballot
    instance: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class PromiseInstance:
    """Phase 1b for a single instance."""

    ballot: Ballot
    instance: int
    vrnd: Ballot
    vval: Optional[Batch]

    def size_mb(self) -> float:
        return CONTROL_MB + (self.vval.size_mb() if self.vval else 0.0)


@dataclass(frozen=True)
class Phase2a:
    """Classic accept request for one instance."""

    ballot: Ballot
    instance: int
    value: Batch

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


@dataclass(frozen=True)
class AnyMessage:
    """Opens a fast round: acceptors may vote for the first proposal they
    receive in this round, for any instance >= ``from_instance``."""

    ballot: Ballot  # fast
    from_instance: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class FastPropose:
    """A proposer's direct proposal to the acceptors in a fast round."""

    ballot: Ballot  # fast
    instance: int
    value: Batch

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


@dataclass(frozen=True)
class FastReject:
    """Acceptor hint to a fast proposer: this instance is already taken
    (the acceptor voted for another value in this round, or the round is
    sealed).  Lets the proposer re-propose elsewhere after one RTT instead
    of waiting for the decision or a retransmission timeout."""

    ballot: Ballot
    instance: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class Accepted:
    """Phase 2b: an acceptor's (durable) vote, broadcast to all learners."""

    ballot: Ballot
    instance: int
    value: Batch

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


@dataclass(frozen=True)
class Forward:
    """A command forwarded to the current coordinator (classic mode)."""

    command: Command

    def size_mb(self) -> float:
        return CONTROL_MB + self.command.size_mb


@dataclass(frozen=True)
class Heartbeat:
    """Failure-detector beacon, piggybacking the decided watermark."""

    decided_watermark: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class LearnRequest:
    """Ask a peer for decided values starting at ``from_instance``."""

    from_instance: int
    max_count: int

    def size_mb(self) -> float:
        return CONTROL_MB


@dataclass(frozen=True)
class LearnReply:
    """A slice of the decided log (bounded; the requester iterates)."""

    entries: Tuple[Tuple[int, Batch], ...]
    decided_watermark: int

    def size_mb(self) -> float:
        return CONTROL_MB + sum(v.size_mb() for _i, v in self.entries)
