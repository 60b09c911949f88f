"""The Treplica runtime: state machine, applier, and autonomous recovery.

One :class:`TreplicaRuntime` lives on each replica node.  It wires the
application to the asynchronous persistent queue:

* ``execute(action)`` -- the state-machine interface: enqueue the action
  and block until it has been applied locally (the paper's synchronous
  ``execute()`` semantics);
* the **applier** process dequeues actions in total order and applies
  them, charging per-action CPU (every replica executes every update,
  which is what makes write-heavy workloads scale sublinearly);
* the **checkpoint loop** periodically records the application state.
  A record is log-structured: a **base** snapshot plus the
  **journal** of actions applied on top of it, so the (host-expensive)
  ``app.snapshot()`` runs once per base instead of once per checkpoint;
  the journal is folded into a fresh base when it has grown as large as
  the state it sits on.  The *simulated* cost of a checkpoint still
  comes from the nominal state size alone;
* **recovery** (``get_state()`` in the paper): a rebooted replica loads
  its latest local checkpoint in chunks -- disk reads and deserialization
  CPU interleaved -- while, *in parallel*, the queue learns the missed
  suffix from the peers; once the backlog is re-applied the replica
  reports ready and rejoins service.  If the peers already truncated the
  needed suffix, a full remote checkpoint transfer runs instead.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.recorder import recorder_of
from repro.obs.registry import registry_of
from repro.obs.trace import current_trace, spans_of
from repro.paxos.messages import Command
from repro.sim.core import Event, Simulator
from repro.sim.disk import WriteAheadLog
from repro.sim.node import Node
from repro.sim.rng import SeedTree
from repro.sim.trace import emit as trace_emit
from repro.treplica.actions import Action
from repro.treplica.application import Application
from repro.treplica.checkpoint import CheckpointManager, CheckpointRecord
from repro.treplica.config import TreplicaConfig
from repro.treplica.queue import PersistentQueue

TREPLICA_PORT = "treplica"


class TreplicaRuntime:
    """Per-replica middleware instance (recreated on every reboot)."""

    def __init__(self, node: Node, replica_names: List[str], my_id: int,
                 app: Application, config: Optional[TreplicaConfig] = None,
                 seed: Optional[SeedTree] = None):
        self.node = node
        self.sim: Simulator = node.sim
        self.names = list(replica_names)
        self.my_id = my_id
        self.app = app
        self.config = config or TreplicaConfig()
        self._seed = seed or SeedTree(0)

        self._spans = spans_of(self.sim)
        self._recorder = recorder_of(self.sim)
        wal = WriteAheadLog(self.sim, node.disk,
                            name=f"{node.name}-queue-wal", node=node)
        # Scrub before anything reads durable state back: verify the log's
        # CRC frames, drop a torn/corrupted suffix, discard unreadable
        # checkpoint slots.  A no-op (and skipped entirely) on a healthy
        # disk with no storage nemesis attached.
        self.scrub_report = self._scrub_storage(wal)
        record = CheckpointManager.stored_record(node.disk)
        start_instance = record.instance + 1 if record is not None else 0
        self.queue = PersistentQueue(
            node, replica_names, my_id, self.config.paxos, self._seed,
            start_instance=start_instance, wal=wal,
            delivered_uids=record.delivered_uids if record is not None else ())
        self.engine = self.queue.engine
        self.engine.on_truncated_peer = self._request_remote_checkpoint
        if self.scrub_report is not None and self.scrub_report["fence"]:
            # The disk lost acked state: stay out of the acceptor role
            # until every peer has told us its high-water marks.
            self.engine.rejoin_fenced = True

        self.applied_up_to = start_instance - 1
        self._had_checkpoint = record is not None
        self._waiters: Dict[str, Event] = {}
        self._uid_counter = 0
        # Log-structured checkpoint state: the snapshot the
        # application was last (re)built from, and every action applied
        # since, in order.  ``None`` until the first checkpoint or restore
        # of this incarnation materialises a base.
        self._base: Any = None
        self._journal: List[Action] = []
        self._journal_mb = 0.0
        self.checkpoints = CheckpointManager(self)

        self.ready = False
        self.ready_event = self.sim.event()
        self.boot_started_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        self._remote_ckpt_requested_at: Optional[float] = None
        self.stats = {"executed": 0, "remote_transfers": 0}
        self._fence_replies: Dict[int, tuple] = {}
        # Applied-watermark target the recovery forensics wait for; only
        # armed (non-None) when span tracing is on.
        self._catchup_target: Optional[int] = None
        obs = registry_of(self.sim)
        self._obs_applied = obs.counter("treplica.applied_commands")
        self._obs_apply_latency = obs.histogram("treplica.apply_latency_s")
        self._obs_remote_transfers = obs.counter("treplica.remote_transfers")
        self._obs_snapshot_encodes = obs.counter("treplica.snapshot_encodes")
        node.add_volatile_crash_hook(self._on_crash)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def _on_crash(self) -> None:
        """The incarnation died with its memory: drop the application,
        the base and the journal.  Whatever still references this runtime
        (dead processes, handlers, reference cycles) then keeps none of
        the state alive, and a late read raises instead of answering
        from a state the crash destroyed."""
        self.app = None
        self._rebase(None)

    def start(self) -> None:
        """Bind to the queue and begin (re)covering; returns immediately."""
        self.boot_started_at = self.sim.now
        self.node.handle(TREPLICA_PORT, self._on_message)
        if not (self.config.sequential_recovery and self._had_checkpoint):
            # The paper's scheme: the queue starts resynchronizing the
            # backlog in parallel with the local checkpoint load.
            self.queue.start()
        if self.engine.rejoin_fenced:
            self.node.spawn(self._fence_loop(), name="treplica-fence")
        self.node.spawn(self._boot(), name="treplica-boot")

    def _boot(self):
        if self._had_checkpoint:
            yield from self._load_local_checkpoint()
            if self._spans is not None:
                self._spans.mark("recovery.checkpoint_loaded",
                                 self.node.name,
                                 instance=self.applied_up_to)
            if self._recorder is not None:
                self._recorder.record("recovery.checkpoint_loaded",
                                      self.node.name,
                                      instance=self.applied_up_to)
            if self.config.sequential_recovery:
                self.queue.start()  # ablation: resync only after the load
        self.node.spawn(self._applier(), name="treplica-applier")
        yield from self._wait_until_caught_up()
        self.ready = True
        self.recovered_at = self.sim.now
        trace_emit(self.sim, "treplica", self.node.name, event="ready",
                   recovered=self._had_checkpoint,
                   took_s=self.sim.now - self.boot_started_at)
        if self._recorder is not None:
            self._recorder.record("recovery.ready", self.node.name,
                                  recovered=self._had_checkpoint,
                                  took_s=round(
                                      self.sim.now - self.boot_started_at, 9))
        self.ready_event.succeed(self.sim.now)
        if self.checkpoints.last_instance < 0 or self._had_checkpoint:
            # Fresh replicas persist their initial state; recovered ones
            # refresh the checkpoint so the next crash replays less.
            yield from self.checkpoints.take()
        self.node.spawn(self.checkpoints.loop(), name="treplica-checkpoint")

    def _scrub_storage(self, wal: WriteAheadLog) -> Optional[dict]:
        """Verify durable state after a (possibly lying) disk's crash.

        Frame verification is metadata-speed bookkeeping piggybacked on
        the recovery reads the boot path pays for anyway, so no simulated
        time passes here.  Returns a report dict, or ``None`` when no
        storage nemesis is attached (the zero-cost path).
        """
        disk = self.node.disk
        self._storage_repair_pending = False
        if disk.nemesis is None:
            return None
        intact, dropped = wal.scrub()
        discarded = CheckpointManager.scrub_slots(disk)
        dirty = disk.dirty
        disk.dirty = False
        # A lost log suffix (torn tail, corrupt frame, or a crash that
        # revoked lied-about fsyncs) may include promises or votes this
        # replica no longer remembers: fence the acceptor role until the
        # peers' high-water marks are known.  A damaged checkpoint alone
        # loses no acceptor state.
        fence = dirty or dropped > 0
        report = {"frames_intact": intact, "frames_dropped": dropped,
                  "checkpoints_discarded": discarded, "dirty": dirty,
                  "fence": fence}
        obs = registry_of(self.sim)
        obs.counter("storage.frames_scrubbed").inc(intact + dropped)
        disk.nemesis.count("frames_scrubbed", intact + dropped)
        if dropped or discarded or dirty:
            self._storage_repair_pending = True
            obs.counter("storage.frames_dropped").inc(dropped)
            disk.nemesis.count("frames_dropped", dropped)
            if dropped:
                obs.counter("storage.suffix_truncations").inc()
                disk.nemesis.count("suffix_truncations")
            obs.counter("storage.checkpoint_discards").inc(discarded)
            disk.nemesis.count("checkpoint_discards", discarded)
            trace_emit(self.sim, "storage", self.node.name, event="scrub",
                       dropped=dropped, discarded=discarded, dirty=dirty)
            if self._spans is not None:
                self._spans.mark("recovery.scrub_started", self.node.name,
                                 dropped=dropped, discarded=discarded)
            if self._recorder is not None:
                self._recorder.record("recovery.scrub", self.node.name,
                                      dropped=dropped, discarded=discarded)
        return report

    def _fence_loop(self):
        """Nag the peers for fence_info until the rejoin fence installs."""
        interval = max(2 * self.config.paxos.heartbeat_interval_s, 0.2)
        while self.engine.rejoin_fenced:
            for peer, name in enumerate(self.names):
                if peer != self.my_id and peer not in self._fence_replies:
                    self.node.send(name, TREPLICA_PORT, ("fence_req",),
                                   size_mb=0.0002)
            yield self.sim.timeout(interval)

    def _on_fence_reply(self, src: str, instance_high: int,
                        round_high: int) -> None:
        if not self.engine.rejoin_fenced:
            return
        try:
            peer = self.names.index(src)
        except ValueError:
            return
        self._fence_replies[peer] = (instance_high, round_high)
        expected = set(range(len(self.names))) - {self.my_id}
        if not expected <= set(self._fence_replies):
            return
        # Every peer answered: the element-wise maximum bounds everything
        # this replica could have promised or voted and forgotten --
        # any quorum it ever joined contains a peer that remembers.
        self.engine.install_rejoin_fence(
            max(v[0] for v in self._fence_replies.values()),
            max(v[1] for v in self._fence_replies.values()))
        registry_of(self.sim).counter("storage.rejoin_fences").inc()
        if self.node.disk.nemesis is not None:
            self.node.disk.nemesis.count("rejoin_fences")

    def _load_local_checkpoint(self):
        """Chunked checkpoint load: disk reads + deserialization CPU.

        Runs while the queue is already learning the missed suffix from
        the peers -- the parallelism the paper credits for levelling
        write-heavy recovery times (Section 5.4).
        """
        node = self.node
        record = CheckpointManager.stored_record(node.disk)
        if record is None:  # crashed before the first checkpoint completed
            return
        chunks = max(1, math.ceil(record.size_mb / self.config.chunk_mb))
        chunk_mb = record.size_mb / chunks
        for _chunk in range(chunks):
            yield node.disk.read(chunk_mb)
            yield node.cpu.request(self.config.restore_cpu_s_per_mb * chunk_mb)
        self.restore_state(record.snapshot)
        self.applied_up_to = max(self.applied_up_to, record.instance)

    def _mark_caught_up(self) -> None:
        """Emit the catch-up milestone on every attached observer."""
        if self._spans is not None:
            self._spans.mark("recovery.caught_up", self.node.name,
                             instance=self.applied_up_to)
        if self._recorder is not None:
            self._recorder.record("recovery.caught_up", self.node.name,
                                  instance=self.applied_up_to)

    def _wait_until_caught_up(self):
        """Ready once the backlog that existed at boot has been applied."""
        poll = max(2 * self.config.paxos.heartbeat_interval_s, 0.2)
        yield self.sim.timeout(poll)  # hear a round of peer watermarks
        marks = self.engine.peer_watermarks
        target = max([self.engine.watermark, self.applied_up_to]
                     + list(marks.values()))
        if self._spans is not None or self._recorder is not None:
            # The catch-up milestone fires the moment the applied
            # watermark crosses the target (see _applier), not at the
            # next poll -- the forensics want the true crossing time.
            if self.applied_up_to >= target:
                self._mark_caught_up()
            else:
                self._catchup_target = target
        while self.applied_up_to < target:
            yield self.sim.timeout(poll / 2)

    # ==================================================================
    # the state-machine programming interface
    # ==================================================================
    def execute(self, action: Action):
        """Generator: totally order ``action``, apply it locally, return
        its result.  Usage: ``result = yield from runtime.execute(a)``."""
        self._uid_counter += 1
        uid = (f"{self.node.name}.{self.node.incarnation}"
               f":a{self._uid_counter}")
        waiter = self.sim.event()
        self._waiters[uid] = waiter
        span = None
        if self._spans is not None:
            span = self._spans.begin("execute", self.node.name,
                                     trace=current_trace(self.sim), uid=uid)
        self.engine.submit(Command(uid, action, size_mb=action.size_mb))
        result = yield waiter
        if span is not None:
            self._spans.finish(span)
        return result

    def read(self, fn: Callable[[Application], Any]) -> Any:
        """Run a read-only function against the local consistent state.

        Reads never touch the queue (the paper: read interactions are
        fulfilled locally); callers pay their CPU cost at the web tier.
        Raises once this incarnation has crashed.
        """
        if self.app is None:
            raise RuntimeError(f"{self.node.name}: read from a crashed "
                               f"incarnation")
        return fn(self.app)

    def get_state(self) -> Any:
        """The paper's ``getState()``: latest consistent local snapshot."""
        return self.app.snapshot()

    def linearizable_read(self, fn: Callable[[Application], Any]):
        """Generator: a read that reflects every update ordered before it.

        Local reads (:meth:`read`) can be stale on a lagging replica; this
        totally orders a no-op barrier first, so the local state is at
        least as fresh as the read's position in the order.  Costs one
        consensus round trip -- use for read-your-writes critical paths.
        """
        from repro.treplica.actions import Barrier
        yield from self.execute(Barrier())
        return self.read(fn)

    # ==================================================================
    # checkpoint state: a base snapshot plus the journal applied since
    # ==================================================================
    def _apply(self, action: Action) -> Any:
        """Apply one ordered action and journal it on top of the base."""
        result = action.apply(self.app)
        self._journal.append(action)
        self._journal_mb += action.size_mb
        return result

    def _rebase(self, base: Any) -> None:
        """The application now equals ``base``: start an empty journal."""
        self._base = base
        self._journal = []
        self._journal_mb = 0.0

    def snapshot_state(self) -> Tuple[Any, Tuple[Action, ...]]:
        """What a checkpoint stores: ``(base, actions applied since)``.

        Atomic within one event.  ``app.snapshot()`` runs only to
        (re)materialise the base: when this incarnation has none yet, and
        when the journal's summed ``size_mb`` has reached the state's
        nominal size (compact when the log is as large as the snapshot).
        Every other checkpoint shares the base and the action objects,
        which the whole cluster already shares.
        """
        if (self._base is None
                or self._journal_mb >= self.app.state_size_mb()):
            self._rebase(self.app.snapshot())
            self._obs_snapshot_encodes.inc()
        return self._base, tuple(self._journal)

    def restore_state(self, state: Tuple[Any, Tuple[Action, ...]]) -> None:
        """Rebuild the application from a :meth:`snapshot_state` value:
        restore the base, replay the journal, and keep both as this
        incarnation's own base and journal."""
        base, journal = state
        self.app.restore(base)
        self._rebase(base)
        for action in journal:
            self._apply(action)

    @property
    def journal_actions(self) -> int:
        """Actions applied on top of the current base."""
        return len(self._journal)

    # ==================================================================
    # applier
    # ==================================================================
    def _applier(self):
        config = self.config
        while True:
            instance, items = yield self.queue.dequeue_batch()
            if instance <= self.applied_up_to:
                continue  # covered by a checkpoint/state transfer
            if items:
                dequeued_at = self.sim.now
                total_cost = sum(
                    action.cpu_cost_s if action.cpu_cost_s is not None
                    else config.default_action_cpu_s
                    for _uid, action in items)
                yield self.node.cpu.request(total_cost)
                # Apply latency: CPU queueing + execution for this
                # instance (decided-to-dequeued time is covered by the
                # queue-depth gauge the harness registers).
                self._obs_apply_latency.observe(self.sim.now - dequeued_at)
                # The whole instance applies atomically (one event), so a
                # checkpoint can never observe a half-applied batch.
                for uid, action in items:
                    result = self._apply(action)
                    self.stats["executed"] += 1
                    self._obs_applied.inc()
                    waiter = self._waiters.pop(uid, None)
                    if waiter is not None and not waiter.triggered:
                        # The local client observes completion here: from
                        # its point of view the command is durable.  The
                        # safety checker holds the cluster to that.
                        trace_emit(self.sim, "ack", self.node.name,
                                   uid=uid, instance=instance)
                        waiter.succeed(result)
                if self._spans is not None:
                    self._spans.complete("apply", self.node.name,
                                         start=dequeued_at,
                                         instance=instance,
                                         commands=len(items))
            self.applied_up_to = max(self.applied_up_to, instance)
            if (self._catchup_target is not None
                    and self.applied_up_to >= self._catchup_target):
                self._catchup_target = None
                self._mark_caught_up()

    # ==================================================================
    # remote checkpoint transfer (peers truncated our backlog)
    # ==================================================================
    def _request_remote_checkpoint(self, peer: int) -> None:
        now = self.sim.now
        if (self._remote_ckpt_requested_at is not None
                and now - self._remote_ckpt_requested_at < 5.0):
            return
        self._remote_ckpt_requested_at = now
        self.node.send(self.names[peer], TREPLICA_PORT,
                       ("ckpt_req", self.applied_up_to), size_mb=0.0002)

    def _on_message(self, payload, src: str) -> None:
        kind = payload[0]
        if kind == "ckpt_req":
            self.node.spawn(self._serve_checkpoint(src), name="ckpt-serve")
        elif kind == "ckpt":
            record = payload[1]
            self.node.spawn(self._install_remote_checkpoint(record),
                            name="ckpt-install")
        elif kind == "fence_req":
            # Served even before this replica is ready: fence_info only
            # reads engine high-water marks, which a booting engine
            # restored from its own (scrubbed) log.
            self.node.send(src, TREPLICA_PORT,
                           ("fence",) + self.engine.fence_info(),
                           size_mb=0.0002)
        elif kind == "fence":
            self._on_fence_reply(src, payload[1], payload[2])

    def _serve_checkpoint(self, requester: str):
        record = CheckpointManager.stored_record(self.node.disk)
        if record is None:
            return
        yield self.node.disk.read(record.size_mb)
        self.node.send(requester, TREPLICA_PORT, ("ckpt", record),
                       size_mb=record.size_mb)

    def _install_remote_checkpoint(self, record: CheckpointRecord):
        if record.instance <= self.applied_up_to:
            return
        chunks = max(1, math.ceil(record.size_mb / self.config.chunk_mb))
        chunk_mb = record.size_mb / chunks
        for _chunk in range(chunks):
            yield self.node.cpu.request(
                self.config.restore_cpu_s_per_mb * chunk_mb)
        self.restore_state(record.snapshot)
        self.applied_up_to = max(self.applied_up_to, record.instance)
        self.engine.fast_forward(record.instance,
                                 delivered_uids=record.delivered_uids)
        self.stats["remote_transfers"] += 1
        self._obs_remote_transfers.inc()
        if self._storage_repair_pending:
            # This transfer replaces state the scrub had to throw away.
            self._storage_repair_pending = False
            obs = registry_of(self.sim)
            obs.counter("storage.peer_repairs").inc()
            obs.counter("storage.repair_mb").inc(record.size_mb)
            if self.node.disk.nemesis is not None:
                self.node.disk.nemesis.count("peer_repairs")
                self.node.disk.nemesis.count("repair_mb", record.size_mb)
            trace_emit(self.sim, "storage", self.node.name,
                       event="repaired_from_peer", instance=record.instance)
            if self._spans is not None:
                self._spans.mark("recovery.repaired_from_peer",
                                 self.node.name, instance=record.instance,
                                 size_mb=round(record.size_mb, 3))
            if self._recorder is not None:
                self._recorder.record("recovery.repaired_from_peer",
                                      self.node.name,
                                      instance=record.instance,
                                      size_mb=round(record.size_mb, 3))
        if self._spans is not None:
            self._spans.mark("recovery.checkpoint_transferred",
                             self.node.name, instance=record.instance)
        if self._recorder is not None:
            self._recorder.record("recovery.checkpoint_transferred",
                                  self.node.name, instance=record.instance)
        if (self._catchup_target is not None
                and self.applied_up_to >= self._catchup_target):
            self._catchup_target = None
            self._mark_caught_up()


class StateMachine:
    """The paper's 8-method programming interface, bound to one runtime.

    Thin facade over :class:`TreplicaRuntime` matching the description in
    Section 2: a black-box application whose public methods are executed
    as generic actions.
    """

    def __init__(self, runtime: TreplicaRuntime):
        self._runtime = runtime

    def execute(self, action: Action):
        """Blocking execute: ``result = yield from machine.execute(a)``."""
        return (yield from self._runtime.execute(action))

    def get_state(self) -> Any:
        return self._runtime.get_state()

    def read(self, fn: Callable[[Application], Any]) -> Any:
        return self._runtime.read(fn)

    @property
    def ready(self) -> bool:
        return self._runtime.ready
