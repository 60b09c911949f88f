"""The application contract Treplica replicates.

An application is a black box (the paper's state-machine view): Treplica
never inspects its state, it only needs to snapshot it, restore it, and
know its nominal size so the simulator can charge realistic checkpoint
and recovery costs.
"""

from __future__ import annotations

import pickle
from typing import Any


class Application:
    """Protocol for replicated applications.

    * :meth:`snapshot` returns an opaque value of the full state (taken
      atomically between events).  Treplica calls it once per checkpoint
      *base*, not once per checkpoint: a checkpoint record is that base
      plus the journal of actions applied since
      (:meth:`TreplicaRuntime.snapshot_state`), so the returned value
      must stay valid while later actions mutate the live state; it may
      share objects with that state (and with every state restored from
      it) that are never written;
    * :meth:`restore` replaces the state with a snapshot; recovery then
      replays the record's journal on top of it;
    * :meth:`state_size_mb` reports the *nominal* state size, which drives
      simulated checkpoint-write, checkpoint-load, and state-transfer
      timing (the paper's 300/500/700 MB experiment parameter).
    """

    def snapshot(self) -> Any:
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        raise NotImplementedError

    def state_size_mb(self) -> float:
        raise NotImplementedError


class InMemoryApplication(Application):
    """Convenience base: pickle-based (base) snapshots of ``self.state``.

    Subclasses keep all replicated data under ``self.state`` (any
    picklable object) and may override :meth:`state_size_mb` when the
    nominal size differs from the in-simulator footprint.
    """

    def __init__(self, state: Any = None, nominal_size_mb: float = 1.0):
        self.state = state
        self._nominal_size_mb = nominal_size_mb

    def snapshot(self) -> bytes:
        return pickle.dumps(self.state, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, snapshot: bytes) -> None:
        self.state = pickle.loads(snapshot)

    def state_size_mb(self) -> float:
        return self._nominal_size_mb
