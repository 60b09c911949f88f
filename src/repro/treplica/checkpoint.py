"""Checkpointing: periodic durable snapshots of the application state.

A checkpoint bounds recovery work: a rebooted replica loads the snapshot
from its local disk and only replays the queue suffix past it.  Snapshots
are taken atomically (between simulator events), then serialized and
written in chunks so that Paxos group commits interleave with the bulk
write instead of stalling behind it.  The record is committed with a final
small write, so a crash mid-checkpoint leaves the previous record intact
(shadow-update discipline).

What a record stores is log-structured: the runtime's ``(base,
journal)`` pair -- one application snapshot and the ordered
actions applied on top of it (:meth:`TreplicaRuntime.snapshot_state`).
That is a host-side representation only: the simulated serialization CPU
and disk traffic below are charged from the nominal state size, whatever
the record shares with the one before it.

Commit records alternate between two slots (``treplica:checkpoint:a`` /
``:b``), so even a *torn* commit -- a storage fault that leaves an
unreadable payload under the key instead of atomically dropping the write
-- damages only the newest slot; the recovery-time scrub discards corrupt
slots and falls back to the surviving one, or to peer state transfer when
both are gone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.registry import registry_of
from repro.paxos.engine import DeliveredPrefix
from repro.sim.trace import log_of


#: the prefix of every checkpoint key (the storage nemesis matches on it)
CHECKPOINT_KEY = "treplica:checkpoint"

#: the two alternating commit-record slots (shadow-update discipline)
CHECKPOINT_SLOTS = (CHECKPOINT_KEY + ":a", CHECKPOINT_KEY + ":b")


@dataclass(frozen=True)
class CheckpointRecord:
    """What is durably stored: the applied instance, the snapshot (the
    runtime's ``(base, journal)`` pair, opaque to the manager), the
    nominal state size that drives simulated load timing, and the
    delivery-dedup memory for the covered prefix (uids first delivered at
    or below ``instance`` -- without it a rebooted replica would re-apply
    a command that consensus decided a second time after the checkpoint).

    ``delivered_uids`` is the engine's :class:`DeliveredPrefix`, a view of
    its append-only delivery log rather than a copy: consecutive records
    of one incarnation share that log."""

    instance: int
    snapshot: Any
    size_mb: float
    taken_at: float
    delivered_uids: DeliveredPrefix


class CheckpointManager:
    """Periodic checkpoint loop for one replica's runtime."""

    def __init__(self, runtime) -> None:
        self._runtime = runtime
        self.last_instance: int = -1
        self.stats = {"checkpoints": 0}
        existing = self.stored_record(runtime.node.disk)
        if existing is not None:
            self.last_instance = existing.instance
        self._events = log_of(runtime.sim)
        obs = registry_of(runtime.sim)
        obs.register_counts(self.stats,
                            {"treplica.checkpoints": "checkpoints"})
        self._obs_ckpt_size = obs.histogram("treplica.checkpoint_size_mb",
                                            lo=0.01, hi=1e4)
        self._obs_ckpt_duration = obs.histogram(
            "treplica.checkpoint_duration_s")

    # ------------------------------------------------------------------
    def loop(self):
        config = self._runtime.config
        while True:
            yield self._runtime.sim.timeout(config.checkpoint_interval_s)
            yield from self.take()

    def take(self):
        """Generator: snapshot now, then pay serialization CPU and disk."""
        runtime = self._runtime
        node = runtime.node
        config = runtime.config
        instance = runtime.applied_up_to
        initial = (self.stats["checkpoints"] == 0
                   and self.stored_record(node.disk) is None)
        if instance <= self.last_instance and not initial:
            return None
        snapshot = runtime.snapshot_state()  # atomic within this event
        size_mb = runtime.app.state_size_mb()
        started_at = node.sim.now
        record = CheckpointRecord(
            instance, snapshot, size_mb, node.sim.now,
            delivered_uids=runtime.engine.delivered_up_to(instance))
        chunks = max(1, math.ceil(size_mb / config.chunk_mb))
        chunk_mb = size_mb / chunks
        for _chunk in range(chunks):
            # Background class: checkpointing must not starve live traffic.
            yield node.cpu.request(config.checkpoint_cpu_s_per_mb * chunk_mb,
                                   priority=1)
            yield node.disk.write(chunk_mb)
        yield node.disk.write_object(self._next_slot(node.disk), record,
                                     0.001)
        self.last_instance = instance
        self.stats["checkpoints"] += 1
        self._obs_ckpt_size.observe(size_mb)
        self._obs_ckpt_duration.observe(node.sim.now - started_at)
        spans = getattr(node.sim, "spans", None)
        if spans is not None:
            spans.complete("checkpoint", node.name, start=started_at,
                           instance=instance, size_mb=round(size_mb, 3))
        if self._events is not None:
            self._events.emit("checkpoint.taken", node.name,
                              instance=instance, size_mb=round(size_mb, 3))
        floor = instance + 1 - config.log_retain_instances
        if floor > 0:
            runtime.engine.truncate_below(floor)
        return record

    # ------------------------------------------------------------------
    @staticmethod
    def _slot_records(disk):
        for key in CHECKPOINT_SLOTS:
            record = disk.peek(key)
            if isinstance(record, CheckpointRecord):
                yield key, record

    @classmethod
    def _next_slot(cls, disk) -> str:
        """The slot to overwrite: the one *not* holding the newest record."""
        newest_key = None
        newest_instance = -1
        for key, record in cls._slot_records(disk):
            if record.instance > newest_instance:
                newest_key, newest_instance = key, record.instance
        if newest_key == CHECKPOINT_SLOTS[0]:
            return CHECKPOINT_SLOTS[1]
        return CHECKPOINT_SLOTS[0]

    @classmethod
    def stored_record(cls, disk) -> Optional[CheckpointRecord]:
        """The latest valid durable checkpoint on ``disk`` (metadata peek).

        Slots holding anything other than a :class:`CheckpointRecord`
        (notably a torn/corrupted payload) are ignored.
        """
        best = None
        for _key, record in cls._slot_records(disk):
            if best is None or record.instance > best.instance:
                best = record
        return best

    @staticmethod
    def scrub_slots(disk) -> int:
        """Drop unreadable checkpoint slots; return how many were dropped.

        The simulated analogue of a payload-checksum failure on the commit
        record: a slot whose stored value is a :class:`CorruptObject` (or
        any non-record garbage) is deleted so it can never be loaded.
        """
        dropped = 0
        for key in CHECKPOINT_SLOTS:
            if disk.contains(key) and not isinstance(disk.peek(key),
                                                     CheckpointRecord):
                disk.delete(key)
                dropped += 1
        return dropped
