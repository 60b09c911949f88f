"""A Chubby-style replicated lock service on Treplica.

Semantics (a faithful miniature of Burrows' lock service, Table 7 of the
paper):

* **sessions** with leases: a client owns a session it must keep alive;
  when a session's lease lapses, an expiry sweep releases everything it
  held;
* **advisory locks** in *exclusive* or *shared* mode, acquired/released
  within a session;
* **sequencers**: every successful exclusive acquisition returns a
  monotonically increasing token ``(lock generation)`` that downstream
  services can use to fence stale lock holders.

Determinism discipline (Section 4 of the paper): every clock reading --
lease deadlines, expiry sweeps -- is taken by the *client wrapper* before
the action is created and travels as an argument, so all replicas agree
bit-for-bit on lease arithmetic.

All replication, failover, and recovery concerns are Treplica's: the
service state is an :class:`~repro.treplica.application.InMemoryApplication`
and every mutation is a deterministic :class:`~repro.treplica.actions.Action`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.treplica.actions import Action
from repro.treplica.application import InMemoryApplication

EXCLUSIVE = "exclusive"
SHARED = "shared"


class LockServiceState:
    """The replicated state: sessions, locks, and sequencer generations."""

    def __init__(self) -> None:
        # session_id -> lease deadline (absolute, from action arguments)
        self.sessions: Dict[str, float] = {}
        # lock name -> (mode, holders)  -- holders is a set of session ids
        self.locks: Dict[str, Tuple[str, Set[str]]] = {}
        # lock name -> generation counter (the Chubby sequencer)
        self.generations: Dict[str, int] = {}

    # -- pure queries (used by the facade's local reads) ----------------
    def holder_of(self, name: str) -> Optional[Set[str]]:
        entry = self.locks.get(name)
        return None if entry is None else set(entry[1])

    def session_alive(self, session_id: str, now: float) -> bool:
        deadline = self.sessions.get(session_id)
        return deadline is not None and deadline >= now


class LockServiceApp(InMemoryApplication):
    """Treplica application wrapper for the lock service."""

    def __init__(self, nominal_size_mb: float = 4.0):
        super().__init__(state=LockServiceState(),
                         nominal_size_mb=nominal_size_mb)


# ======================================================================
# deterministic actions
# ======================================================================
class CreateSession(Action):
    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, session_id: str, now: float, ttl_s: float):
        self.session_id = session_id
        self.now = now
        self.ttl_s = ttl_s

    def apply(self, app) -> bool:
        state = app.state
        if self.session_id in state.sessions:
            return False
        state.sessions[self.session_id] = self.now + self.ttl_s
        return True


class KeepAlive(Action):
    cpu_cost_s = 0.00005
    size_mb = 0.0001

    def __init__(self, session_id: str, now: float, ttl_s: float):
        self.session_id = session_id
        self.now = now
        self.ttl_s = ttl_s

    def apply(self, app) -> bool:
        state = app.state
        if self.session_id not in state.sessions:
            return False
        state.sessions[self.session_id] = max(
            state.sessions[self.session_id], self.now + self.ttl_s)
        return True


class Acquire(Action):
    """Try-acquire: returns a sequencer on success, None on conflict."""

    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, session_id: str, name: str, mode: str, now: float):
        if mode not in (EXCLUSIVE, SHARED):
            raise ValueError(f"unknown lock mode: {mode!r}")
        self.session_id = session_id
        self.name = name
        self.mode = mode
        self.now = now

    def apply(self, app) -> Optional[int]:
        state = app.state
        if not state.session_alive(self.session_id, self.now):
            return None
        entry = state.locks.get(self.name)
        if entry is not None and entry[1]:
            mode, holders = entry
            if self.session_id in holders and mode == self.mode:
                return state.generations.get(self.name, 0)  # re-entrant
            if self.mode == SHARED and mode == SHARED:
                holders.add(self.session_id)
                return state.generations.get(self.name, 0)
            return None  # conflict
        generation = state.generations.get(self.name, 0) + 1
        state.generations[self.name] = generation
        state.locks[self.name] = (self.mode, {self.session_id})
        return generation


class Release(Action):
    cpu_cost_s = 0.00008
    size_mb = 0.0002

    def __init__(self, session_id: str, name: str):
        self.session_id = session_id
        self.name = name

    def apply(self, app) -> bool:
        state = app.state
        entry = state.locks.get(self.name)
        if entry is None or self.session_id not in entry[1]:
            return False
        entry[1].discard(self.session_id)
        if not entry[1]:
            del state.locks[self.name]
        return True


class ExpireSessions(Action):
    """Lease sweep: drop dead sessions and everything they held.

    Any replica's client wrapper may submit sweeps; they are idempotent
    and totally ordered, so all replicas expire the same sessions at the
    same point in the order.
    """

    cpu_cost_s = 0.0002
    size_mb = 0.0001

    def __init__(self, now: float):
        self.now = now

    def apply(self, app) -> List[str]:
        state = app.state
        expired = sorted(session for session, deadline
                         in state.sessions.items() if deadline < self.now)
        for session in expired:
            del state.sessions[session]
            for name in [n for n, (_m, holders) in state.locks.items()
                         if session in holders]:
                _mode, holders = state.locks[name]
                holders.discard(session)
                if not holders:
                    del state.locks[name]
        return expired


# ======================================================================
# the client-side facade
# ======================================================================
class LockClient:
    """Per-replica client wrapper (the lock service's 'facade').

    All methods are generators (they block on total ordering):
    ``granted = yield from client.acquire("master", EXCLUSIVE)``.
    Non-determinism (clock reads) is resolved here, never inside actions.
    """

    def __init__(self, runtime, session_id: str, ttl_s: float = 10.0):
        self._runtime = runtime
        self._sim = runtime.sim
        self.session_id = session_id
        self.ttl_s = ttl_s

    # -- session lifecycle ----------------------------------------------
    def open_session(self):
        action = CreateSession(self.session_id, self._sim.now, self.ttl_s)
        return (yield from self._runtime.execute(action))

    def keep_alive(self):
        action = KeepAlive(self.session_id, self._sim.now, self.ttl_s)
        return (yield from self._runtime.execute(action))

    def keep_alive_loop(self, interval_s: Optional[float] = None):
        """Background process body: refresh the lease forever."""
        interval = interval_s if interval_s is not None else self.ttl_s / 3.0
        while True:
            yield from self.keep_alive()
            yield self._sim.timeout(interval)

    # -- locks ------------------------------------------------------------
    def acquire(self, name: str, mode: str = EXCLUSIVE):
        """Try-acquire; returns the sequencer (int) or None on conflict."""
        action = Acquire(self.session_id, name, mode, self._sim.now)
        return (yield from self._runtime.execute(action))

    def acquire_blocking(self, name: str, mode: str = EXCLUSIVE,
                         retry_s: float = 0.5):
        """Acquire, retrying until granted (lock-wait semantics)."""
        while True:
            granted = yield from self.acquire(name, mode)
            if granted is not None:
                return granted
            yield self._sim.timeout(retry_s)

    def release(self, name: str):
        return (yield from self._runtime.execute(
            Release(self.session_id, name)))

    def sweep_expired(self):
        """Submit a lease sweep (typically from a housekeeping process)."""
        return (yield from self._runtime.execute(
            ExpireSessions(self._sim.now)))

    # -- local reads -------------------------------------------------------
    def holders(self, name: str) -> Optional[Set[str]]:
        return self._runtime.read(lambda app: app.state.holder_of(name))

    def generation(self, name: str) -> int:
        return self._runtime.read(
            lambda app: app.state.generations.get(name, 0))
