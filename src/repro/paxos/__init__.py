"""Paxos and Fast Paxos -- the consensus core of Treplica.

The engine implements multi-decree consensus over the simulated cluster:

* **Classic Paxos** (Lamport, "The Part-Time Parliament"): an elected
  coordinator runs Phase 1 once per ballot and Phase 2 per instance, with
  command batching (group commit) on the proposal path.
* **Fast Paxos** (Lamport, 2006): the coordinator opens a *fast round* with
  an ``Any`` message; any replica then proposes directly to the acceptors,
  saving a message delay.  Collisions are detected eagerly by the
  coordinator and resolved with a classic round using the standard
  value-picking rule; competing batches are merged so no client command is
  lost.
* **The Treplica mode rule** (Section 2 of the paper): with ``N`` replicas,
  fast rounds are used while ``ceil(3N/4)`` replicas are up, classic rounds
  while at least ``floor(N/2)+1`` are up, and the protocol blocks below a
  majority until enough replicas recover.

Durability: acceptors persist promises and votes in a write-ahead log
(group commit) before answering, and restore them on restart, so a crashed
replica can never un-promise.
"""

from repro.paxos.config import PaxosConfig
from repro.paxos.engine import PaxosEngine
from repro.paxos.failure_detector import FailureDetector
from repro.paxos.messages import (
    Accepted,
    AnyMessage,
    Ballot,
    Batch,
    Command,
    FastPropose,
    FastReject,
    Forward,
    Heartbeat,
    LearnReply,
    LearnRequest,
    Phase2a,
    Prepare,
    PrepareInstance,
    Promise,
    PromiseInstance,
)
from repro.paxos.quorum import classic_quorum, fast_quorum, recovery_threshold

__all__ = [
    "Accepted",
    "AnyMessage",
    "Ballot",
    "Batch",
    "Command",
    "FailureDetector",
    "FastPropose",
    "FastReject",
    "Forward",
    "Heartbeat",
    "LearnReply",
    "LearnRequest",
    "PaxosConfig",
    "PaxosEngine",
    "Phase2a",
    "Prepare",
    "PrepareInstance",
    "Promise",
    "PromiseInstance",
    "classic_quorum",
    "fast_quorum",
    "recovery_threshold",
]
