"""Heartbeat-based unreliable failure detector.

Each replica beacons :class:`~repro.paxos.messages.Heartbeat` periodically;
any protocol message also counts as a sign of life.  A peer is suspected
after ``failure_timeout_s`` of silence.  The detector drives coordinator
election (lowest live id) and the Treplica fast/classic/blocked mode rule.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List

from repro.sim.core import Simulator


class FailureDetector:
    """Tracks last-heard times and reports the live view.

    ``view`` (the trusted ids, always including self), ``leader_id``
    (its lowest id) and ``last_heard`` are plain attributes, so the
    engine's per-message path reads them without a call; ``view`` and
    ``leader_id`` change together, only in :meth:`_recompute`.
    """

    def __init__(self, sim: Simulator, my_id: int, all_ids: List[int],
                 timeout_s: float):
        self._sim = sim
        self.my_id = my_id
        self.all_ids = sorted(all_ids)
        self.timeout_s = timeout_s
        self.last_heard: Dict[int, float] = {
            peer: sim.now for peer in self.all_ids}
        self._listeners: List[Callable[[FrozenSet[int]], None]] = []
        self.view: FrozenSet[int] = frozenset(self.all_ids)
        self.leader_id = min(self.view)

    # ------------------------------------------------------------------
    def heard_from(self, peer: int) -> None:
        """Record a sign of life from ``peer`` (heartbeat or any message).

        ``PaxosEngine._on_message`` does the same inline."""
        self.last_heard[peer] = self._sim.now
        if peer not in self.view:
            self._recompute()

    def check(self) -> None:
        """Re-evaluate suspicions; called periodically by the engine."""
        self._recompute()

    def on_view_change(self, fn: Callable[[FrozenSet[int]], None]) -> None:
        self._listeners.append(fn)

    # ------------------------------------------------------------------
    def is_alive(self, peer: int) -> bool:
        return peer in self.view

    def leader(self) -> int:
        """The coordinator under the lowest-live-id rule."""
        return self.leader_id

    # ------------------------------------------------------------------
    def _recompute(self) -> None:
        now = self._sim.now
        live = frozenset(
            peer for peer in self.all_ids
            if peer == self.my_id or now - self.last_heard[peer] <= self.timeout_s
        )
        if live != self.view:
            self.view = live
            self.leader_id = min(live)
            for listener in list(self._listeners):
                listener(live)
