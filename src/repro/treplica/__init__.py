"""Treplica -- the replication middleware (Section 2 of the paper).

Treplica turns a deterministic, single-process application into a
replicated, crash-recoverable one.  Its two programming abstractions are:

* the **asynchronous persistent queue** (:class:`PersistentQueue`):
  a totally ordered, durable collection of actions with an asynchronous
  ``enqueue`` and a blocking ``dequeue``; implemented on Paxos / Fast
  Paxos, so it keeps working through partial failures without
  reconfiguration;
* the **replicated state machine** (:class:`TreplicaRuntime`): the
  application is a black box whose public methods become deterministic
  actions; ``execute(action)`` blocks until the action has been applied
  locally, and ``get_state()`` returns the most recent consistent state.

Recovery is transparent: a rebooted replica loads its latest local
checkpoint, learns the missed queue suffix from its peers in parallel,
re-applies it, and rejoins -- the programmer only calls ``get_state()``.
"""

from repro.treplica.actions import Action
from repro.treplica.application import Application, InMemoryApplication
from repro.treplica.checkpoint import CheckpointManager, CheckpointRecord
from repro.treplica.config import TreplicaConfig
from repro.treplica.queue import PersistentQueue
from repro.treplica.runtime import TreplicaRuntime

__all__ = [
    "Action",
    "Application",
    "CheckpointManager",
    "CheckpointRecord",
    "InMemoryApplication",
    "PersistentQueue",
    "TreplicaConfig",
    "TreplicaRuntime",
]
