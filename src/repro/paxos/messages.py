"""Wire types for the Paxos engine.

The protocol messages and :class:`Ballot` are hand-written ``__slots__``
classes (one is built per hop; ``dataclass(slots=True)`` needs Python
3.10): they compare, hash and print by their fields, as frozen
dataclasses do, and nothing assigns to a field after ``__init__``.
:class:`Command` and :class:`Batch` stay frozen dataclasses.
``size_mb()`` estimates a message's wire footprint so the simulated
network charges realistic transfer costs (batches dominate; control
fields cost a few hundred bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

CONTROL_MB = 0.0002  # ~200 bytes of headers per control message


class Ballot:
    """A round identifier, totally ordered by ``(round, proposer)``.

    ``fast`` marks fast rounds; it does not participate in the ordering
    because a proposer never reuses a round number for both kinds.  It
    does take part in equality and the hash.
    """

    __slots__ = ("round", "proposer", "fast")

    def __init__(self, round: int, proposer: int, fast: bool = False):
        self.round = round
        self.proposer = proposer
        self.fast = fast

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

    def __repr__(self) -> str:
        return (f"Ballot(round={self.round!r}, proposer={self.proposer!r}, "
                f"fast={self.fast!r})")


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
class Message:
    """Base of the protocol messages: equality, hash and repr over the
    fields named in ``__slots__``, in order."""

    __slots__: Tuple[str, ...] = ()

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Prepare(Message):
    """Phase 1a for every instance >= ``from_instance`` (leader election)."""

    __slots__ = ("ballot", "from_instance")
    ballot: Ballot
    from_instance: int

    def __init__(self, ballot: Ballot, from_instance: int):
        self.ballot = ballot
        self.from_instance = from_instance

    def size_mb(self) -> float:
        return CONTROL_MB


class Promise(Message):
    """Phase 1b: acceptor state for all instances >= the prepare's start."""

    __slots__ = ("ballot", "from_instance", "accepted", "decided_watermark")
    ballot: Ballot
    from_instance: int
    accepted: Tuple[Tuple[int, Ballot, Batch], ...]  # (instance, vrnd, vval)
    decided_watermark: int

    def __init__(self, ballot: Ballot, from_instance: int,
                 accepted: Tuple[Tuple[int, Ballot, Batch], ...],
                 decided_watermark: int):
        self.ballot = ballot
        self.from_instance = from_instance
        self.accepted = accepted
        self.decided_watermark = decided_watermark

    def size_mb(self) -> float:
        return CONTROL_MB + sum(v.size_mb() for _i, _b, v in self.accepted)


class PrepareInstance(Message):
    """Phase 1a for a single instance (fast-round collision recovery)."""

    __slots__ = ("ballot", "instance")
    ballot: Ballot
    instance: int

    def __init__(self, ballot: Ballot, instance: int):
        self.ballot = ballot
        self.instance = instance

    def size_mb(self) -> float:
        return CONTROL_MB


class PromiseInstance(Message):
    """Phase 1b for a single instance."""

    __slots__ = ("ballot", "instance", "vrnd", "vval")
    ballot: Ballot
    instance: int
    vrnd: Ballot
    vval: Optional[Batch]

    def __init__(self, ballot: Ballot, instance: int, vrnd: Ballot,
                 vval: Optional[Batch]):
        self.ballot = ballot
        self.instance = instance
        self.vrnd = vrnd
        self.vval = vval

    def size_mb(self) -> float:
        return CONTROL_MB + (self.vval.size_mb() if self.vval else 0.0)


class Phase2a(Message):
    """Classic accept request for one instance."""

    __slots__ = ("ballot", "instance", "value")
    ballot: Ballot
    instance: int
    value: Batch

    def __init__(self, ballot: Ballot, instance: int, value: Batch):
        self.ballot = ballot
        self.instance = instance
        self.value = value

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


class AnyMessage(Message):
    """Opens a fast round: acceptors may vote for the first proposal they
    receive in this round, for any instance >= ``from_instance``."""

    __slots__ = ("ballot", "from_instance")
    ballot: Ballot  # fast
    from_instance: int

    def __init__(self, ballot: Ballot, from_instance: int):
        self.ballot = ballot
        self.from_instance = from_instance

    def size_mb(self) -> float:
        return CONTROL_MB


class FastPropose(Message):
    """A proposer's direct proposal to the acceptors in a fast round."""

    __slots__ = ("ballot", "instance", "value")
    ballot: Ballot  # fast
    instance: int
    value: Batch

    def __init__(self, ballot: Ballot, instance: int, value: Batch):
        self.ballot = ballot
        self.instance = instance
        self.value = value

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


class FastReject(Message):
    """Acceptor hint to a fast proposer: this instance is already taken
    (the acceptor voted for another value in this round, or the round is
    sealed).  Lets the proposer re-propose elsewhere after one RTT instead
    of waiting for the decision or a retransmission timeout."""

    __slots__ = ("ballot", "instance")
    ballot: Ballot
    instance: int

    def __init__(self, ballot: Ballot, instance: int):
        self.ballot = ballot
        self.instance = instance

    def size_mb(self) -> float:
        return CONTROL_MB


class Accepted(Message):
    """Phase 2b: an acceptor's (durable) vote, broadcast to all learners."""

    __slots__ = ("ballot", "instance", "value")
    ballot: Ballot
    instance: int
    value: Batch

    def __init__(self, ballot: Ballot, instance: int, value: Batch):
        self.ballot = ballot
        self.instance = instance
        self.value = value

    def size_mb(self) -> float:
        return CONTROL_MB + self.value.size_mb()


class Forward(Message):
    """A command forwarded to the current coordinator (classic mode)."""

    __slots__ = ("command",)
    command: Command

    def __init__(self, command: Command):
        self.command = command

    def size_mb(self) -> float:
        return CONTROL_MB + self.command.size_mb


class Heartbeat(Message):
    """Failure-detector beacon, piggybacking the decided watermark."""

    __slots__ = ("decided_watermark",)
    decided_watermark: int

    def __init__(self, decided_watermark: int):
        self.decided_watermark = decided_watermark

    def size_mb(self) -> float:
        return CONTROL_MB


class LearnRequest(Message):
    """Ask a peer for decided values starting at ``from_instance``."""

    __slots__ = ("from_instance", "max_count")
    from_instance: int
    max_count: int

    def __init__(self, from_instance: int, max_count: int):
        self.from_instance = from_instance
        self.max_count = max_count

    def size_mb(self) -> float:
        return CONTROL_MB


class LearnReply(Message):
    """A slice of the decided log (bounded; the requester iterates)."""

    __slots__ = ("entries", "decided_watermark")
    entries: Tuple[Tuple[int, Batch], ...]
    decided_watermark: int

    def __init__(self, entries: Tuple[Tuple[int, Batch], ...],
                 decided_watermark: int):
        self.entries = entries
        self.decided_watermark = decided_watermark

    def size_mb(self) -> float:
        return CONTROL_MB + sum(v.size_mb() for _i, v in self.entries)


#: The messages whose ``value`` is a :class:`Batch`: the engine's
#: dispatcher charges these per command as well as per message.
BATCH_CARRIERS = frozenset({Phase2a, FastPropose, Accepted})
