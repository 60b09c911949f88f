"""Stable storage: a local disk with fsync semantics and group commit.

The paper's replicas write Paxos state and checkpoints to a local 7200-rpm
disk; recovery time is dominated by reading the checkpoint back.  This model
captures the two costs that matter:

* a *synchronous-write* latency floor per fsync (seek + rotation + flush),
  amortized by group commit in :class:`WriteAheadLog`;
* sequential bandwidth for bulk reads/writes (checkpoints, log suffixes).

Durability semantics: a write is durable only once its completion event has
fired.  A node crash drops all queued and in-flight operations -- their data
is lost, exactly like a power cut before fsync returns.  Durable contents
survive crashes because :class:`Disk` objects outlive their node's volatile
state.

Storage faults: a :class:`StorageNemesis` (one per cluster, mirroring the
network :class:`~repro.sim.network.Nemesis`) can make a disk misbehave in
four seed-deterministic ways --

* **torn writes** -- a crash mid-write leaves a partially-persisted record
  (a prefix of the group-commit batch plus one damaged frame) instead of
  atomically dropping the whole operation;
* **latent corruption** -- a stored record is silently damaged in place
  and only discovered on read-back (scrub);
* **fsync lies** -- during a write-cache window, completions reported as
  durable are rolled back by the next crash (the drive's dirty-cache
  counter, ``unsafe_shutdowns``, records *that* something was lost, never
  *what* -- exactly the SMART-level signal real drives give);
* **fail-slow** -- latency/bandwidth degraded by a multiplier over a
  window: the gray failure a binary failure detector cannot see.

With no nemesis attached, none of these paths draw randomness, emit traces,
or change timing: runs are bit-for-bit identical to a build without the
feature.  Log entries are CRC-framed (:class:`LogFrame`) unconditionally --
framing is pure bookkeeping with no simulated cost (a checksum is computed
only when a frame is checked), and gives recovery-time scrub something to
verify.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.core import Event, Simulator
from repro.sim.resource import Grant, ServiceStation
from repro.sim.rng import SeedTree
from repro.sim.trace import log_for, log_of

#: Framing bytes every write-ahead-log entry adds to its payload.
ENTRY_OVERHEAD_MB = 0.0002


@dataclass(frozen=True)
class DiskParams:
    """Calibration constants for a single disk.

    Defaults approximate the paper's 40 GB 7200-rpm disks: ~8 ms for a small
    synchronous write (seek + rotation, no volatile write cache for
    durability) and a few tens of MB/s sequential transfer.
    """

    sync_write_latency_s: float = 0.008
    write_bandwidth_mb_s: float = 40.0
    read_latency_s: float = 0.004
    read_bandwidth_mb_s: float = 45.0


def frame_crc(seq: int, entry: Any) -> int:
    """Checksum for one log frame.

    Computed over the entry's repr, which is stable for the lifetime of the
    stored object -- the only window in which it is ever rechecked.
    """
    return zlib.crc32(repr((seq, entry)).encode("utf-8", "replace"))


class LogFrame:
    """One CRC-framed write-ahead-log record.

    ``seq`` is the append sequence number (monotone within an incarnation),
    ``entry`` the payload, ``crc`` the checksum written alongside it.  A
    torn or corrupted frame fails :meth:`intact` and is dropped -- with its
    entire suffix -- by the recovery-time scrub.

    The checksum is computed when it is checked, not when it is written.
    A frame written intact stores none (``crc=None``): its checksum is by
    construction the entry's own, so :attr:`crc` computes it on demand.  A
    damaged frame (torn, or corrupted by the nemesis) stores the checksum
    that was actually written, and :meth:`intact` compares that with the
    entry's.  Frames are never modified after they are built.
    """

    __slots__ = ("seq", "entry", "_crc")

    def __init__(self, seq: int, entry: Any, crc: Optional[int] = None):
        self.seq = seq
        self.entry = entry
        self._crc = crc

    @property
    def crc(self) -> int:
        """The checksum stored alongside the entry."""
        stored = self._crc
        return frame_crc(self.seq, self.entry) if stored is None else stored

    def intact(self) -> bool:
        stored = self._crc
        return stored is None or stored == frame_crc(self.seq, self.entry)

    def __repr__(self) -> str:
        return (f"LogFrame(seq={self.seq!r}, entry={self.entry!r}, "
                f"crc={self.crc!r})")


@dataclass(frozen=True)
class CorruptObject:
    """Sentinel stored in place of a payload damaged by the nemesis.

    Readers that scrub (checkpoint loading) must treat a value of this type
    as unreadable -- the simulated analogue of a failed payload checksum.
    """

    key: str


@dataclass(frozen=True)
class StorageFault:
    """One active storage misbehaviour window on one disk.

    ``kind`` is one of ``torn`` / ``fsynclie`` / ``failslow`` (the point
    fault ``corrupt`` is :meth:`StorageNemesis.corrupt`, never a window).
    ``p`` is the probability a crash inside a ``torn`` window tears the
    in-flight write; ``factor`` multiplies disk op cost inside a
    ``failslow`` window.
    """

    kind: str
    disk: str
    p: float = 1.0
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in ("torn", "fsynclie", "failslow"):
            raise ValueError(f"unknown storage fault kind {self.kind!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"torn-write probability {self.p!r} not in (0, 1]")
        if not self.factor >= 1.0:
            raise ValueError(f"fail-slow factor {self.factor!r} must "
                             "be >= 1.0")


class StorageNemesis:
    """Seed-deterministic storage fault injector for a cluster's disks.

    One instance serves every disk (mirroring the network nemesis): disks
    are registered with :meth:`attach`, and it holds only the faults
    active now -- windows (:class:`StorageFault`) come with
    :meth:`add_window` and go with :meth:`remove_window`, a corruption
    strikes when :meth:`corrupt` is called.  Every random draw happens
    only when a matching window is active -- so two runs with the same
    seed and schedule inject identically, and a run whose windows never
    match one with no nemesis at all.
    """

    #: The repair-side keys of :attr:`counters`.
    REPAIR_COUNTS = ("frames_scrubbed", "frames_dropped",
                     "suffix_truncations", "checkpoint_discards",
                     "peer_repairs", "repair_mb", "rejoin_fences")

    def __init__(self, sim: Simulator, seed: Optional[SeedTree] = None):
        self._events = log_of(sim)
        self._rng = (seed or SeedTree(0)).fork_random("storage-nemesis")
        self._disks: Dict[str, Disk] = {}
        self.windows: List[StorageFault] = []
        # Per-disk stack of undo closures for completions acknowledged
        # during an fsync-lie window; dropped (made truly durable) when the
        # last such window is removed, replayed in reverse by a crash
        # inside it.
        self._write_cache: Dict[str, List[Callable[[], None]]] = {}
        self.counters: Dict[str, float] = {
            "torn_writes": 0,        # crashes that tore an in-flight write
            "corrupted_frames": 0,   # log frames damaged in place
            "corrupted_objects": 0,  # stored objects damaged in place
            "lied_writes": 0,        # completions acked from the write cache
            "revoked_writes": 0,     # lied completions rolled back by a crash
            "slow_ops": 0,           # disk ops stretched by a fail-slow window
            # Repair side (REPAIR_COUNTS; incremented by the recovery
            # scrub in repro.treplica.runtime, and read from here as the
            # storage.* counters of an observed run):
            "frames_scrubbed": 0,    # CRC frames verified at boot
            "frames_dropped": 0,     # torn/corrupt/revoked suffix frames
            "suffix_truncations": 0,  # scrubs that had to truncate the log
            "checkpoint_discards": 0,  # unreadable checkpoint slots deleted
            "peer_repairs": 0,       # checkpoint transfers replacing damage
            "repair_mb": 0.0,        # state re-fetched from peers
            "rejoin_fences": 0,      # acceptor fences installed after amnesia
        }

    def count(self, name: str, amount: float = 1) -> None:
        """Bump one audit counter (the repair path reports through this)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, disk: "Disk") -> None:
        """Put ``disk`` under this nemesis's control."""
        disk.nemesis = self
        self._disks[disk.name] = disk

    def add_window(self, fault: StorageFault) -> None:
        """Start a torn / fsynclie / failslow window."""
        self.windows.append(fault)

    def remove_window(self, fault: StorageFault) -> None:
        """End a window.  When the last lying cache window on a disk
        ends, the drive flushes: every completion acked during it becomes
        truly durable."""
        self.windows.remove(fault)
        if fault.kind == "fsynclie" and not self._active("fsynclie",
                                                         fault.disk):
            self._write_cache.pop(fault.disk, None)

    # ------------------------------------------------------------------
    # consultation from the disk layer
    # ------------------------------------------------------------------
    def _active(self, kind: str, disk: str) -> List[StorageFault]:
        return [w for w in self.windows if w.kind == kind and w.disk == disk]

    def slow_factor(self, disk: str) -> float:
        """Cost multiplier for a disk op starting now (1.0 = healthy)."""
        factor = 1.0
        for window in self._active("failslow", disk):
            factor *= window.factor
        return factor

    def count_slow_op(self) -> None:
        self.counters["slow_ops"] += 1

    def torn_fate(self, disk: str) -> bool:
        """Roll whether a crash right now tears ``disk``'s in-flight write."""
        for window in self._active("torn", disk):
            if window.p >= 1.0 or self._rng.random() < window.p:
                self.counters["torn_writes"] += 1
                return True
        return False

    def tear_point(self, group_size: int) -> int:
        """How many records of a torn group survived intact (0..n-1)."""
        return self._rng.randrange(group_size)

    def write_completed(self, disk: "Disk", undo: Callable[[], None]) -> None:
        """Register a durable-effect commit; capture it if the cache lies."""
        if self._active("fsynclie", disk.name):
            self._write_cache.setdefault(disk.name, []).append(undo)
            self.counters["lied_writes"] += 1

    # ------------------------------------------------------------------
    # fault delivery
    # ------------------------------------------------------------------
    def on_crash(self, disk: "Disk") -> None:
        """Crash-time hook: lose everything the write cache lied about."""
        undos = self._write_cache.pop(disk.name, None)
        if not undos:
            return
        for undo in reversed(undos):
            undo()
        self.counters["revoked_writes"] += len(undos)
        disk.unsafe_shutdowns += 1
        disk.lost_write_count += len(undos)
        disk.dirty = True
        if self._events is not None:
            self._events.emit("storage.fsynclie_lost", disk.name,
                              writes=len(undos))

    def corrupt(self, disk_name: str) -> None:
        """Silently damage one scrubbed durable record on the disk."""
        disk = self._disks.get(disk_name)
        if disk is None:
            return
        # Restrict victims to records the durability layer actually scrubs:
        # framed WAL lists and checkpoint slots.  Damaging anything else
        # would model a fault the paper's stack never reads back.
        frames_victims = sorted(
            key for key, (value, _size) in disk._store.items()
            if key.startswith("wal:") and isinstance(value, list) and value)
        object_victims = sorted(
            key for key, (value, _size) in disk._store.items()
            if key.startswith("treplica:checkpoint")
            and not isinstance(value, CorruptObject))
        victims = frames_victims + object_victims
        if not victims:
            return
        key = victims[self._rng.randrange(len(victims))]
        if key in frames_victims:
            frames = disk._store[key][0]
            index = self._rng.randrange(len(frames))
            frame = frames[index]
            frames[index] = LogFrame(frame.seq, frame.entry,
                                     frame.crc ^ 0xFFFFFFFF)
            self.counters["corrupted_frames"] += 1
            if self._events is not None:
                self._events.emit("storage.corrupted", disk_name, key=key,
                                  frame=index)
        else:
            _value, size_mb = disk._store[key]
            disk._store[key] = (CorruptObject(key), size_mb)
            self.counters["corrupted_objects"] += 1
            if self._events is not None:
                self._events.emit("storage.corrupted", disk_name, key=key)


class Disk:
    """A FIFO disk shared by everything on one node.

    All operations serialize through one :class:`ServiceStation`, so a bulk
    checkpoint read naturally contends with concurrent log writes -- the
    effect that shapes the paper's recovery times (Figure 6).
    """

    def __init__(self, sim: Simulator, params: Optional[DiskParams] = None,
                 name: str = "disk"):
        self._sim = sim
        self.params = params or DiskParams()
        self.name = name
        self._events = log_of(sim)
        self._ops = log_for(sim, "disk")
        self._station = ServiceStation(sim, name=f"{name}-io")
        self._store: Dict[str, Tuple[Any, float]] = {}
        self.bytes_written_mb = 0.0
        self.bytes_read_mb = 0.0
        # Storage fault plumbing; all None/zero and never consulted unless
        # a StorageNemesis attaches itself.
        self.nemesis: Optional[StorageNemesis] = None
        self._inflight_objects: List[Tuple[str, Any, float]] = []
        self.unsafe_shutdowns = 0     # crashes that lost acked writes
        self.lost_write_count = 0     # acked writes revoked across all crashes
        self.dirty = False            # set by a lossy crash, cleared by scrub

    @property
    def queue_length(self) -> int:
        """Operations waiting for the disk head (observability gauge)."""
        return self._station.queue_length

    # ------------------------------------------------------------------
    # raw timed operations
    # ------------------------------------------------------------------
    def write(self, size_mb: float) -> Grant:
        """A synchronous (durable-on-completion) write of ``size_mb``."""
        cost = (self.params.sync_write_latency_s
                + size_mb / self.params.write_bandwidth_mb_s)
        cost = self._degraded(cost)
        done = self._station.request(cost)
        # Byte counters account completed transfers only: an op dropped by
        # a crash (station reset) never moved data to the platter.
        done.add_callback(lambda _event, mb=size_mb, start=self._sim.now:
                          self._book("write", mb, start))
        return done

    def read(self, size_mb: float) -> Grant:
        """A sequential read of ``size_mb``."""
        cost = (self.params.read_latency_s
                + size_mb / self.params.read_bandwidth_mb_s)
        cost = self._degraded(cost)
        done = self._station.request(cost)
        done.add_callback(lambda _event, mb=size_mb, start=self._sim.now:
                          self._book("read", mb, start))
        return done

    def _degraded(self, cost: float) -> float:
        if self.nemesis is None:
            return cost
        factor = self.nemesis.slow_factor(self.name)
        if factor == 1.0:
            return cost
        self.nemesis.count_slow_op()
        return cost * factor

    def _book(self, op: str, size_mb: float, start: float) -> None:
        if op == "write":
            self.bytes_written_mb += size_mb
        else:
            self.bytes_read_mb += size_mb
        # The span covers queueing behind the disk head plus the transfer
        # itself; an op lost to a crash (station reset) never completes
        # and emits nothing.
        if self._ops is not None:
            self._ops.emit("disk", self.name, start=start, op=op,
                           size_mb=round(size_mb, 6))

    # ------------------------------------------------------------------
    # durable key-value segments (checkpoints, metadata)
    # ------------------------------------------------------------------
    def write_object(self, key: str, value: Any, size_mb: float) -> Event:
        """Write ``value`` under ``key``; durable once the event fires."""
        done = self._sim.event()
        token = (key, value, size_mb)
        self._inflight_objects.append(token)

        def commit(_grant: Grant) -> None:
            self._inflight_objects.remove(token)
            prior = self._store.get(key)
            self._store[key] = (value, size_mb)
            if self.nemesis is not None:
                self.nemesis.write_completed(
                    self, lambda: self._restore(key, prior))
            done.succeed(value)

        self.write(size_mb).add_callback(commit)
        return done

    def _restore(self, key: str, prior: Optional[Tuple[Any, float]]) -> None:
        # Undo for a lied-about object write: put back what a real fsync
        # would have left on the platter.
        if prior is None:
            self._store.pop(key, None)
        else:
            self._store[key] = prior

    def peek(self, key: str, default: Any = None) -> Any:
        """Zero-cost metadata access (used by boot code, not data paths)."""
        entry = self._store.get(key)
        return default if entry is None else entry[0]

    def contains(self, key: str) -> bool:
        return key in self._store

    def delete(self, key: str) -> None:
        self._store.pop(key, None)

    def persistent(self, key: str, factory) -> Any:
        """A mutable object that lives in the durable store.

        Used by :class:`WriteAheadLog` to keep its committed entries across
        crash/restart cycles where the wrapping Python object is recreated.
        Mutations are only made from commit callbacks, whose timing was
        already paid through :meth:`write`.
        """
        if key not in self._store:
            self._store[key] = (factory(), 0.0)
        return self._store[key][0]

    # ------------------------------------------------------------------
    # crash semantics
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Drop queued and in-flight operations; durable contents survive."""
        self._station.reset()
        pending, self._inflight_objects = self._inflight_objects, []
        if self.nemesis is None:
            return
        for key, _value, size_mb in pending:
            # A torn object write leaves an unreadable payload under the
            # key instead of atomically not happening.
            if self.nemesis.torn_fate(self.name):
                self._store[key] = (CorruptObject(key), size_mb)
                if self._events is not None:
                    self._events.emit("storage.torn_object", self.name,
                                      key=key)
        self.nemesis.on_crash(self)


class WriteAheadLog:
    """Append-only durable log with group commit.

    Entries appended while a disk write is in flight are coalesced into the
    next write, so one fsync amortizes over a burst -- the batching that
    keeps the shopping-profile speedup close to browsing in Figure 3.

    Durable records are stored as CRC-framed :class:`LogFrame` objects;
    ``entries()`` exposes the unwrapped durable prefix for recovery,
    :meth:`truncate_below` discards entries superseded by a checkpoint, and
    :meth:`scrub` verifies every frame and truncates a damaged suffix --
    the detection half of torn-write / corruption recovery.  A commit
    frames its entries without computing a checksum (see
    :class:`LogFrame`); only a damaged frame carries one.  The log holds
    each entry object itself, so a caller that keeps the entry (the Paxos
    acceptor keeps its vote) shares it with the frame.
    """

    def __init__(self, sim: Simulator, disk: Disk, name: str = "wal",
                 node=None):
        self._sim = sim
        self._events = log_of(sim)
        self._disk = disk
        self.name = name
        self._pending: List[Tuple[Any, float, Event]] = []
        self._flushing = False
        self._inflight_group: Optional[List[Tuple[Any, float, Event]]] = None
        # The durable entry list lives in the disk store, so a log object
        # recreated after a reboot sees everything that was committed.
        self._durable: List[LogFrame] = disk.persistent(f"wal:{name}", list)
        self._seq = (self._durable[-1].seq + 1) if self._durable else 0
        self.flush_count = 0
        self.appended_count = 0
        if node is not None:
            node.add_volatile_crash_hook(self.on_crash)

    def append(self, entry: Any, size_mb: float = 0.0) -> Event:
        """Append ``entry``; the event fires once the entry is durable."""
        done = self._sim.event()
        self._pending.append((entry, size_mb + ENTRY_OVERHEAD_MB, done))
        self.appended_count += 1
        if not self._flushing:
            self._flush()
        return done

    def entries(self) -> List[Any]:
        """The durable entries, in append order (crash-surviving view)."""
        return [frame.entry for frame in self._durable]

    def truncate_below(self, keep_predicate) -> int:
        """Keep only entries where ``keep_predicate(entry)``; return removed count."""
        before = len(self._durable)
        self._durable[:] = [f for f in self._durable if keep_predicate(f.entry)]
        return before - len(self._durable)

    def scrub(self) -> Tuple[int, int]:
        """Verify every frame; truncate at the first damaged one.

        A torn or corrupted frame invalidates everything after it -- the
        suffix may depend on state the damaged record carried -- so the log
        is cut at the first CRC mismatch, and the lost suffix re-fetched
        through the ordinary catch-up path.  Returns ``(intact, dropped)``
        frame counts.  Pure verification: no simulated time passes (scrub
        piggybacks on the recovery reads the boot path already pays for).
        """
        for index, frame in enumerate(self._durable):
            if not (isinstance(frame, LogFrame) and frame.intact()):
                dropped = len(self._durable) - index
                del self._durable[index:]
                return index, dropped
        return len(self._durable), 0

    def on_crash(self) -> None:
        """Lose the un-flushed tail; keep the durable prefix.

        Inside a torn-write window the loss is not atomic: a prefix of the
        in-flight group commits intact, then one partially-written frame
        with a bad CRC -- what a power cut mid-sector leaves behind.
        """
        group, self._inflight_group = self._inflight_group, None
        nemesis = self._disk.nemesis
        if (nemesis is not None and group
                and nemesis.torn_fate(self._disk.name)):
            kept = nemesis.tear_point(len(group))
            for entry, _size, _done in group[:kept]:
                self._durable.append(self._frame(entry))
            torn_entry = group[kept][0]
            seq = self._seq
            self._seq += 1
            self._durable.append(LogFrame(
                seq, torn_entry, frame_crc(seq, torn_entry) ^ 0xFFFFFFFF))
            if self._events is not None:
                self._events.emit("storage.torn_write", self._disk.name,
                                  name=self.name, kept=kept)
        self._pending.clear()
        self._flushing = False

    # ------------------------------------------------------------------
    def _frame(self, entry: Any) -> LogFrame:
        seq = self._seq
        self._seq += 1
        return LogFrame(seq, entry)

    def _flush(self) -> None:
        if not self._pending:
            self._flushing = False
            return
        self._flushing = True
        group, self._pending = self._pending, []
        self._inflight_group = group
        total_mb = sum(size for _entry, size, _done in group)
        self.flush_count += 1

        def committed(_grant: Grant) -> None:
            self._inflight_group = None
            frames: List[LogFrame] = []
            for entry, _size, done in group:
                frame = self._frame(entry)
                frames.append(frame)
                self._durable.append(frame)
                if not done.triggered:
                    done.succeed(None)
            nemesis = self._disk.nemesis
            if nemesis is not None:
                nemesis.write_completed(
                    self._disk, lambda: self._revoke(frames))
            self._flush()

        self._disk.write(total_mb).add_callback(committed)

    def _revoke(self, frames: List[LogFrame]) -> None:
        # Undo for a lied-about group commit: the frames evaporate, as if
        # the fsync had never been acknowledged.  Frames already removed by
        # a checkpoint truncation are simply gone either way.  Frames are
        # matched by identity: exactly the revoked objects go.
        revoked = {id(frame) for frame in frames}
        self._durable[:] = [frame for frame in self._durable
                            if id(frame) not in revoked]
