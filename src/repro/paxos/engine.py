"""The multi-decree Paxos / Fast Paxos engine.

Every replica plays all three roles:

* **proposer** -- buffers locally submitted commands and either forwards
  them to the coordinator (classic mode) or proposes them directly to the
  acceptors (fast mode), batched per ``batch_window_s``;
* **acceptor** -- maintains ``(rnd, vrnd, vval)`` per instance plus a
  cluster-wide minimum promise, persists every promise and vote to a
  write-ahead log (group commit) *before* answering, and restores that
  state after a crash;
* **learner** -- counts ``Accepted`` votes (majority for classic rounds,
  ``ceil(3N/4)`` for fast rounds), advances a contiguous watermark, and
  streams decided commands -- deduplicated by uid -- into a delivery
  channel consumed by Treplica's persistent queue.

Coordination follows the lowest-live-id rule driven by the failure
detector.  A new coordinator runs Phase 1 for all instances above its
watermark, adopts the mandated values (with the Fast Paxos picking rule
where fast votes are present, merging competing batches so no command is
lost), fills gaps with no-ops, and -- when the Treplica mode rule allows --
opens a fast round with an ``Any`` message.

Liveness machinery: command retransmission with delivery dedup, eager
fast-collision detection at the coordinator (recovery as soon as no value
can reach a fast quorum), a gap timer as backstop, and watermark catch-up
via ``LearnRequest`` paging.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import islice
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from repro.paxos.config import PaxosConfig
from repro.paxos.failure_detector import FailureDetector
from repro.paxos.messages import (
    NOOP,
    NULL_BALLOT,
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
    merge_batches,
)
from repro.paxos.quorum import classic_quorum, fast_quorum, recovery_threshold
from repro.obs.registry import registry_of
from repro.sim.core import Simulator
from repro.sim.disk import WriteAheadLog
from repro.sim.node import Node
from repro.sim.rng import SeedTree
from repro.sim.trace import emit as trace_emit

PAXOS_PORT = "paxos"

MODE_FAST = "fast"
MODE_CLASSIC = "classic"
MODE_BLOCKED = "blocked"

# The learner's exactly-once memory, ``PaxosEngine._uids``, maps each uid
# to one of these states.
_DECIDED = 0    # decided in this incarnation, not yet delivered
_DELIVERED = 1  # in the delivery log, decided in this incarnation
_RESTORED = 2   # in the delivery log from a checkpoint or state
                # transfer, not (yet) decided in this incarnation


class DeliveredPrefix:
    """The uids a replica first delivered at or below one instance, in
    delivery order: the first ``length`` entries of its delivery log.

    The log is append-only, so a prefix stays valid while the log grows,
    and every checkpoint record of one incarnation shares the one list
    instead of copying the whole delivery history.  Read it by iterating;
    ``len()`` is the number of uids.
    """

    __slots__ = ("_log", "_length")

    def __init__(self, log: List[str], length: int):
        self._log = log
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[str]:
        return islice(self._log, self._length)

    @property
    def log(self) -> List[str]:
        """The shared delivery log this is a prefix of."""
        return self._log


class PaxosEngine:
    """One replica's consensus stack, hosted on a simulated node."""

    def __init__(self, node: Node, replica_names: List[str], my_id: int,
                 config: PaxosConfig, seed: SeedTree,
                 wal: Optional[WriteAheadLog] = None,
                 start_instance: int = 0,
                 delivered_uids: Iterable[str] = ()):
        self.node = node
        self.sim: Simulator = node.sim
        self.names = list(replica_names)
        self.me = my_id
        self.n = len(replica_names)
        if config.classic_quorum_override is not None:
            # Checker-validity mutation knob: force BOTH phase quorums so
            # the broken-intersection runs it powers stay reachable.
            self.q1 = self.q2 = config.classic_quorum_override
        else:
            self.q1 = (config.phase1_quorum
                       if config.phase1_quorum is not None
                       else classic_quorum(self.n))
            self.q2 = (config.phase2_quorum
                       if config.phase2_quorum is not None
                       else classic_quorum(self.n))
            if (config.phase1_quorum is not None
                    or config.phase2_quorum is not None):
                if not (1 <= self.q1 <= self.n and 1 <= self.q2 <= self.n):
                    raise ValueError(
                        f"phase quorums out of range for n={self.n}: "
                        f"q1={self.q1}, q2={self.q2}")
                if self.q1 + self.q2 <= self.n:
                    raise ValueError(
                        f"flexible quorums must intersect: q1 + q2 > n "
                        f"(got q1={self.q1}, q2={self.q2}, n={self.n})")
                if config.enable_fast:
                    raise ValueError("flexible phase quorums require "
                                     "enable_fast=False")
        # Classic (phase-2) quorum under its historical name: the mode
        # rule and a pile of tests read it.
        self.cq = self.q2
        self.fq = fast_quorum(self.n)
        self.config = config
        self._rng = seed.fork_random(f"paxos-{my_id}")
        self.wal = wal if wal is not None else WriteAheadLog(
            self.sim, node.disk, name=f"{node.name}-paxos-wal", node=node)

        # --- acceptor state (durable via WAL) ---
        self.min_promised: Ballot = NULL_BALLOT
        self.inst_rnd: Dict[int, Ballot] = {}
        self.votes: Dict[int, Tuple[Ballot, Batch]] = {}
        self.fast_round: Optional[Ballot] = None
        self.fast_from: int = 0

        # --- learner state ---
        self.log_start = start_instance
        self.decided: Dict[int, Batch] = {}
        self.watermark = start_instance - 1  # highest contiguous decided
        # Exactly-once memory, one entry per uid: _DECIDED, _DELIVERED or
        # _RESTORED.  Every uid but the _DECIDED ones is also in the
        # delivery log, in first-delivery order; the log is append-only
        # (checkpoint records share it as DeliveredPrefix views) and
        # ``_mark_lengths[k]`` of its entries were delivered at or below
        # instance ``_mark_instances[k]``.  Seeded from the checkpoint so a
        # reboot cannot re-deliver a repeat (a uid decided again after a
        # fast collision) whose first occurrence is hidden inside the
        # restored snapshot.
        self._uids: Dict[str, int] = {}
        self._log: List[str] = []
        self._mark_instances = array("q")
        self._mark_lengths = array("q")
        self._log_restored(start_instance - 1, delivered_uids)
        self._vote_sets: Dict[int, Dict[Tuple[Ballot, Tuple[str, ...]], Set[int]]] = {}
        self.max_seen_instance = start_instance - 1
        self.delivery = self.sim.channel()  # (instance, tuple of fresh Commands)

        # --- proposer / coordinator state ---
        self.leading = False
        self.my_ballot: Optional[Ballot] = None
        self.max_round_seen = 0
        self._phase1_promises: Dict[int, Promise] = {}
        self._phase1_from = 0
        self.next_instance = start_instance
        self._pending: List[Command] = []
        self._flush_timer = None
        self._fast_pending: List[Command] = []
        self._fast_flush_timer = None
        self._my_fast_proposals: Dict[int, Batch] = {}
        self._fast_rejects: Dict[int, Set[int]] = {}
        self._next_fast_instance = start_instance
        self.unacked: Dict[str, Tuple[Command, float]] = {}
        self._recovering: Dict[int, Tuple[Ballot, Dict[int, PromiseInstance]]] = {}
        self._last_advance = self.sim.now
        self._learn_inflight = False
        self._truncated_hint: Optional[int] = None
        self.on_truncated_peer: Optional[Callable[[int], None]] = None

        # --- rejoin fence (storage-fault recovery) ---
        # A replica whose disk lost acked state (fsync lie, corrupted log
        # suffix) may have promised or voted things it no longer remembers.
        # Until its runtime learns a safe high-water mark from every peer,
        # the acceptor role is fenced off entirely; afterwards it stays
        # fenced below the learned marks, so the replica can never
        # contradict a vote or promise it forgot.  All three fields are
        # inert on a clean boot.
        self.rejoin_fenced = False
        self.vote_fence_instance = -1
        self.vote_fence_round = -1

        # --- infrastructure ---
        self.fd = FailureDetector(
            self.sim, my_id, list(range(self.n)), config.failure_timeout_s)
        self.fd.on_view_change(self._on_view_change)
        self._inbox = self.sim.channel()
        self._started = False
        self._peer_watermarks: Dict[int, int] = {}

        # --- statistics ---
        self.stats = {
            "proposals": 0, "fast_proposals": 0, "decisions": 0,
            "collisions_recovered": 0, "phase1_runs": 0, "noops": 0,
            "retries": 0, "learn_requests": 0, "mode_changes": 0,
            "fast_rejected": 0,
        }
        # Cluster-wide observability instruments (no-ops unless the
        # harness attached a registry to the simulator).
        self._spans = getattr(self.sim, "spans", None)
        self._recorder = getattr(self.sim, "recorder", None)
        obs = registry_of(self.sim)
        self._obs_proposals = obs.counter("paxos.proposals")
        self._obs_fast_proposals = obs.counter("paxos.fast_proposals")
        self._obs_decisions = obs.counter("paxos.decisions")
        self._obs_batches_flushed = obs.counter("paxos.batches_flushed")
        self._obs_batch_occupancy = obs.histogram(
            "paxos.batch_occupancy", lo=1.0, hi=4096.0)
        self._obs_retries = obs.counter("paxos.retries")
        self._obs_gap_noops = obs.counter("paxos.gap_noops")
        self._obs_mode_changes = obs.counter("paxos.mode_changes")
        self._obs_phase1_runs = obs.counter("paxos.phase1_runs")
        self._obs_collisions = obs.counter("paxos.collisions_recovered")
        self._obs_fast_rejected = obs.counter("paxos.fast_rejected")

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Restore durable state, register handlers, spawn housekeeping."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self._restore_from_wal()
        self.node.handle(PAXOS_PORT, self._on_message)
        self.node.spawn(self._dispatcher(), name="paxos-dispatch")
        self.node.spawn(self._heartbeat_loop(), name="paxos-heartbeat")
        self.node.spawn(self._retry_loop(), name="paxos-retry")
        self.node.spawn(self._gap_loop(), name="paxos-gap")
        if self.fd.leader() == self.me:
            self.sim.call_after(0.01, self._maybe_start_phase1)

    def _restore_from_wal(self) -> None:
        """Replay durable promises and votes (never un-promise)."""
        for entry in self.wal.entries():
            kind = entry[0]
            if kind == "promise":
                self.min_promised = max(self.min_promised, entry[1])
                self.max_round_seen = max(self.max_round_seen, entry[1].round)
            elif kind == "inst_rnd":
                _kind, instance, ballot = entry
                current = self.inst_rnd.get(instance, NULL_BALLOT)
                self.inst_rnd[instance] = max(current, ballot)
                self.max_round_seen = max(self.max_round_seen, ballot.round)
            elif kind == "vote":
                _kind, instance, ballot, value = entry
                current = self.votes.get(instance, (NULL_BALLOT, NOOP))
                if ballot >= current[0]:
                    self.votes[instance] = (ballot, value)
                self.max_seen_instance = max(self.max_seen_instance, instance)
                self.max_round_seen = max(self.max_round_seen, ballot.round)
            elif kind == "fast":
                _kind, ballot, from_instance = entry
                if self.fast_round is None or ballot > self.fast_round:
                    self.fast_round = ballot
                    self.fast_from = from_instance
                self.min_promised = max(self.min_promised, ballot)
                self.max_round_seen = max(self.max_round_seen, ballot.round)
        if self.fast_round is not None and self.min_promised > self.fast_round:
            self.fast_round = None  # was sealed by a later classic promise

    # ==================================================================
    # public API
    # ==================================================================
    def submit(self, command: Command) -> None:
        """Hand a command to consensus; it will eventually be delivered
        exactly once (in total order) on every live replica."""
        self.unacked[command.uid] = (command, self.sim.now)
        self._route(command)

    @property
    def mode(self) -> str:
        """The Treplica mode implied by the current live view."""
        alive = len(self.fd.view)
        if alive >= self.fq and self.config.enable_fast and self.fast_round is not None:
            return MODE_FAST
        if alive >= self.cq:
            return MODE_CLASSIC
        return MODE_BLOCKED

    @property
    def peer_watermarks(self) -> Dict[int, int]:
        """Latest decided watermarks heard from peers (via heartbeats)."""
        return dict(self._peer_watermarks)

    def delivered_up_to(self, instance: int) -> DeliveredPrefix:
        """Uids first delivered (or restored) at or below ``instance``, as
        a prefix view of the delivery log -- O(1), no copy.

        Checkpoints persist this: delivery dedup is what keeps the
        apply stream exactly-once when a uid gets decided again in a
        later instance, and that memory must survive a reboot.
        """
        k = bisect_right(self._mark_instances, instance)
        return DeliveredPrefix(self._log,
                               self._mark_lengths[k - 1] if k else 0)

    @property
    def dedup_uids(self) -> int:
        """How many uids the exactly-once memory holds."""
        return len(self._uids)

    def fast_forward(self, instance: int,
                     delivered_uids: Iterable[str] = ()) -> None:
        """Jump the learner past ``instance`` after a remote state transfer.

        Everything at or below ``instance`` is covered by the transferred
        snapshot; decided values below it are dropped and delivery resumes
        at ``instance + 1``.  ``delivered_uids`` carries the sender's
        delivery-dedup knowledge for the transferred prefix.  A stale
        transfer (``instance`` not above the watermark) changes nothing:
        this replica delivered that prefix itself, in the same order.
        """
        if instance <= self.watermark:
            return
        self._log_restored(instance, delivered_uids)
        for i in [i for i in self.decided if i <= instance]:
            del self.decided[i]
        for i in [i for i in self._vote_sets if i <= instance]:
            self._drop_vote_tracking(i)
        # The transferred snapshot covers everything up to ``instance``;
        # tell the safety checker those instances were skipped, not lost.
        trace_emit(self.sim, "deliver", self.node.name, event="transfer",
                   upto=instance, inc=self.node.incarnation)
        self.watermark = instance
        self.log_start = max(self.log_start, instance + 1)
        self._last_advance = self.sim.now
        self._advance_watermark()

    def truncate_below(self, instance: int) -> None:
        """Garbage-collect everything below ``instance`` (checkpointed)."""
        if instance <= self.log_start:
            return
        self.log_start = instance
        for i in [i for i in self.decided if i < instance]:
            del self.decided[i]
        for i in [i for i in self.votes if i < instance]:
            del self.votes[i]
        for i in [i for i in self.inst_rnd if i < instance]:
            del self.inst_rnd[i]
        for i in [i for i in self._vote_sets if i < instance]:
            self._drop_vote_tracking(i)
        self.wal.truncate_below(
            lambda entry: entry[0] in ("promise", "fast") or entry[1] >= instance)

    def fence_info(self) -> Tuple[int, int]:
        """This replica's high-water marks, served to a fenced rejoiner.

        ``(instance_high, round_high)``: no instance above the first and no
        ballot round above the second can have been touched with this
        replica's participation.  Any vote or promise a storage-faulted
        peer might have made and forgotten is covered by the element-wise
        maximum of these marks across its peers, because every quorum the
        peer ever joined contains at least one replica that remembers it.
        """
        instance_high = max(self.max_seen_instance, self.next_instance - 1,
                            self._next_fast_instance - 1)
        return instance_high, self.max_round_seen

    def install_rejoin_fence(self, instance_high: int,
                             round_high: int) -> None:
        """Re-admit a fenced acceptor above the learned high-water marks."""
        self.vote_fence_instance = max(self.vote_fence_instance,
                                       instance_high)
        self.vote_fence_round = max(self.vote_fence_round, round_high)
        self.rejoin_fenced = False
        trace_emit(self.sim, "storage", self.node.name,
                   event="fence_installed",
                   instance=self.vote_fence_instance,
                   round=self.vote_fence_round)

    # ==================================================================
    # messaging plumbing
    # ==================================================================
    def _broadcast(self, message) -> None:
        size = message.size_mb()
        for name in self.names:
            self.node.send(name, PAXOS_PORT, message, size_mb=size)

    def _send_to(self, replica_id: int, message) -> None:
        self.node.send(self.names[replica_id], PAXOS_PORT, message,
                       size_mb=message.size_mb())

    def _on_message(self, payload, src_name: str) -> None:
        try:
            src = self.names.index(src_name)
        except ValueError:
            return
        self.fd.heard_from(src)
        self._inbox.put((payload, src))

    def _dispatcher(self):
        """Serialize protocol handling through the node CPU.

        Messages are drained in groups and charged with one CPU grant, so
        a backlog amortizes scheduling instead of paying one full
        scheduling round-trip per message (as a real event-driven
        middleware thread does when its socket has several datagrams).
        """
        config = self.config
        while True:
            first = yield self._inbox.get()
            group = [first] + self._inbox.take(63)
            cost = 0.0
            for payload, _src in group:
                cost += config.cpu_per_message_s
                commands = getattr(payload, "value", None)
                if isinstance(commands, Batch):
                    cost += config.cpu_per_command_s * len(commands)
            yield self.node.cpu.request(cost)
            for payload, src in group:
                self._handle(payload, src)

    def _handle(self, message, src: int) -> None:
        handler = self._HANDLERS.get(type(message))
        if handler is not None:
            handler(self, message, src)

    # ==================================================================
    # housekeeping processes
    # ==================================================================
    def _heartbeat_loop(self):
        while True:
            beat = Heartbeat(decided_watermark=self.watermark)
            for replica_id in range(self.n):
                if replica_id != self.me:
                    self._send_to(replica_id, beat)
            self.fd.check()
            yield self.sim.timeout(self.config.heartbeat_interval_s)

    def _retry_loop(self):
        """Resubmit commands that have not been decided (dedup makes this safe)."""
        while True:
            yield self.sim.timeout(self.config.retry_interval_s)
            now = self.sim.now
            stale = [uid for uid, (_c, t) in self.unacked.items()
                     if now - t > self.config.retry_age_s]
            for uid in stale:
                command, _t = self.unacked[uid]
                if self._is_decided(uid):
                    self.unacked.pop(uid, None)
                    continue
                self.unacked[uid] = (command, now)
                self.stats["retries"] += 1
                self._obs_retries.inc()
                self._route(command)

    def _gap_loop(self):
        """Backstop for undecided gaps and for falling behind the cluster."""
        while True:
            yield self.sim.timeout(self.config.gap_timeout_s)
            stalled = (self.sim.now - self._last_advance) > self.config.gap_timeout_s
            behind_peer = self._most_advanced_peer()
            if behind_peer is not None and not self._learn_inflight:
                self._request_learn(behind_peer)
            elif stalled and self.max_seen_instance > self.watermark:
                if self._is_coordinator():
                    first_gaps = [i for i in range(
                        self.watermark + 1,
                        min(self.watermark + 17, self.max_seen_instance + 1))
                        if i not in self.decided]
                    for instance in first_gaps:
                        self._recover_instance(instance)
                elif not self._learn_inflight:
                    self._request_learn(self._random_live_peer())

    def _most_advanced_peer(self) -> Optional[int]:
        best, best_mark = None, self.watermark
        for peer, mark in self._peer_watermarks.items():
            if mark > best_mark and self.fd.is_alive(peer):
                best, best_mark = peer, mark
        return best

    def _random_live_peer(self) -> Optional[int]:
        peers = [p for p in self.fd.view if p != self.me]
        return self._rng.choice(peers) if peers else None

    def _request_learn(self, peer: Optional[int]) -> None:
        if peer is None:
            return
        self._learn_inflight = True
        self.stats["learn_requests"] += 1
        self._send_to(peer, LearnRequest(self.watermark + 1, self.config.learn_page))
        self.sim.call_after(2.0, self._clear_learn_inflight)

    def _clear_learn_inflight(self) -> None:
        self._learn_inflight = False

    # ==================================================================
    # proposer side
    # ==================================================================
    def _reroute_unacked(self) -> None:
        """A path just opened (leadership gained, fast round established):
        commands stranded waiting for the retry timer can go now."""
        for uid, (command, _t) in list(self.unacked.items()):
            if self._is_decided(uid) or uid in self._my_fast_proposals_uids():
                continue
            self._route(command)

    def _my_fast_proposals_uids(self) -> Set[str]:
        return {command.uid for batch in self._my_fast_proposals.values()
                for command in batch.commands}

    def _already_pending(self, uid: str) -> bool:
        return (any(c.uid == uid for c in self._pending)
                or any(c.uid == uid for c in self._fast_pending))

    def _route(self, command: Command) -> None:
        if self._already_pending(command.uid) or self._is_decided(command.uid):
            return
        mode = self.mode
        if mode == MODE_FAST:
            self._fast_pending.append(command)
            if self._fast_flush_timer is None:
                self._fast_flush_timer = self.sim.call_after(
                    self.config.batch_window_s, self._flush_fast)
        elif mode == MODE_CLASSIC:
            leader = self.fd.leader()
            if leader == self.me:
                if self.leading:
                    self._pending.append(command)
                    if self._flush_timer is None:
                        self._flush_timer = self.sim.call_after(
                            self.config.batch_window_s, self._flush_classic)
                # else: phase 1 in progress; the retry loop resubmits
            else:
                self._send_to(leader, Forward(command))
        # MODE_BLOCKED: keep in unacked; the retry loop resubmits when the
        # view recovers (the paper: "the algorithm blocks until enough
        # failed processes have recovered").

    def _flush_classic(self) -> None:
        self._flush_timer = None
        if not self._pending:
            return
        if self.mode == MODE_FAST:
            # A fast round opened since these commands were buffered; the
            # classic ballot is now sealed, so divert to the fast path.
            self._fast_pending.extend(self._pending)
            self._pending.clear()
            self._flush_fast()
            return
        if not self.leading:
            return
        while self._pending:
            chunk = self._pending[:self.config.max_batch]
            del self._pending[:self.config.max_batch]
            batch = Batch(tuple(chunk))
            instance = self.next_instance
            self.next_instance += 1
            self.stats["proposals"] += 1
            self._obs_proposals.inc()
            self._obs_batches_flushed.inc()
            self._obs_batch_occupancy.observe(len(chunk))
            self._broadcast(Phase2a(self.my_ballot, instance, batch))

    def _flush_fast(self) -> None:
        self._fast_flush_timer = None
        if self.fast_round is None or not self._fast_pending:
            return
        while (self._fast_pending
               and len(self._my_fast_proposals) < self.config.fast_window):
            chunk = self._fast_pending[:self.config.max_batch]
            del self._fast_pending[:self.config.max_batch]
            batch = Batch(tuple(chunk))
            instance = self._pick_fast_instance()
            self._my_fast_proposals[instance] = batch
            self.stats["fast_proposals"] += 1
            self._obs_fast_proposals.inc()
            self._obs_batches_flushed.inc()
            self._obs_batch_occupancy.observe(len(chunk))
            self._broadcast(FastPropose(self.fast_round, instance, batch))

    def _maybe_continue_fast(self) -> None:
        """A window slot freed (decide or reject): flush held-back work."""
        if (self._fast_pending and self._fast_flush_timer is None
                and self.fast_round is not None):
            self._fast_flush_timer = self.sim.call_after(
                0.0, self._flush_fast)

    def _pick_fast_instance(self) -> int:
        candidate = max(self.watermark + 1, self.max_seen_instance + 1,
                        self._next_fast_instance, self.fast_from)
        self._next_fast_instance = candidate + 1
        return candidate

    # ==================================================================
    # coordinator: election, phase 1, fast-round management
    # ==================================================================
    def _is_coordinator(self) -> bool:
        return self.fd.leader() == self.me

    def _on_view_change(self, view: FrozenSet[int]) -> None:
        self.stats["mode_changes"] += 1
        self._obs_mode_changes.inc()
        if self._recorder is not None:
            self._recorder.record("paxos.view_change", self.node.name,
                                  view=len(view),
                                  leading=self.fd.leader() == self.me)
        if self.fd.leader() != self.me:
            self.leading = False
            return
        alive = len(view)
        if not self.leading:
            self._start_phase1()
            return
        fast_active = self.fast_round is not None
        if fast_active and (alive < self.fq or not self.config.enable_fast):
            # Below the fast quorum: seal the fast round by moving to a
            # higher classic ballot (the Treplica fallback rule).
            self._start_phase1()
        elif not fast_active and alive >= self.fq and self.config.enable_fast:
            self._open_fast_round()

    def _maybe_start_phase1(self) -> None:
        if self._is_coordinator() and not self.leading:
            self._start_phase1()

    def _start_phase1(self) -> None:
        self.leading = False
        self.max_round_seen += 1
        ballot = Ballot(self.max_round_seen, self.me, fast=False)
        self.my_ballot = ballot
        self._phase1_promises = {}
        # Everything at or below the watermark is decided; only instances
        # above it can still hold un-chosen votes that must be adopted.
        self._phase1_from = self.watermark + 1
        self.stats["phase1_runs"] += 1
        self._obs_phase1_runs.inc()
        trace_emit(self.sim, "paxos", self.node.name, event="phase1",
                   round=ballot.round, from_instance=self._phase1_from)
        self._broadcast(Prepare(ballot, self._phase1_from))
        self.sim.call_after(
            4 * self.config.failure_timeout_s, self._phase1_timeout, ballot)

    def _phase1_timeout(self, ballot: Ballot) -> None:
        if (self.my_ballot == ballot and not self.leading
                and self._is_coordinator()):
            self._start_phase1()

    def _on_promise(self, message: Promise, src: int) -> None:
        if message.ballot != self.my_ballot or self.leading:
            return
        self._phase1_promises[src] = message
        if len(self._phase1_promises) < self.q1:
            return
        # Quorum of promises: adopt mandated values, fill gaps, go live.
        per_instance: Dict[int, List[Tuple[Ballot, Batch]]] = {}
        peer_wm = self.watermark
        learn_from: Optional[int] = None
        for peer, promise in self._phase1_promises.items():
            if promise.decided_watermark > peer_wm:
                peer_wm = promise.decided_watermark
                learn_from = peer
            for instance, vrnd, vval in promise.accepted:
                per_instance.setdefault(instance, []).append((vrnd, vval))
        covered = max(per_instance) if per_instance else self._phase1_from - 1
        covered = max(covered, self.watermark, peer_wm)
        self.leading = True
        if self._spans is not None:
            # Recovery forensics milestone: the group has a leader again.
            self._spans.mark("paxos.elected", self.node.name,
                             round=self.my_ballot.round)
        if self._recorder is not None:
            self._recorder.record("paxos.elected", self.node.name,
                                  round=self.my_ballot.round)
        self.next_instance = covered + 1
        for instance in range(self._phase1_from, covered + 1):
            if instance in self.decided:
                continue
            if instance <= peer_wm:
                # Decided at the most advanced peer (watermarks are
                # contiguous) and possibly vote-censored in the promises;
                # never risk re-proposing over a chosen value -- learn it.
                continue
            votes = per_instance.get(instance, [])
            value = self._pick_value(votes)
            if value.is_noop:
                self.stats["noops"] += 1
                self._obs_gap_noops.inc()
            self.stats["proposals"] += 1
            self._obs_proposals.inc()
            self._broadcast(Phase2a(self.my_ballot, instance, value))
        if learn_from is not None and learn_from != self.me:
            self._request_learn(learn_from)
        if (len(self.fd.view) >= self.fq and self.config.enable_fast):
            self._open_fast_round()
        if self._pending and self._flush_timer is None:
            self._flush_timer = self.sim.call_after(
                self.config.batch_window_s, self._flush_classic)
        self._reroute_unacked()

    def _pick_value(self, votes: List[Tuple[Ballot, Batch]]) -> Batch:
        """The Fast Paxos value-picking rule (classic is the special case)."""
        if not votes:
            return NOOP
        k = max(vrnd for vrnd, _v in votes)
        top = [value for vrnd, value in votes if vrnd == k]
        if not k.fast:
            return top[0]  # classic: all votes in round k carry one value
        counts: Dict[Tuple[str, ...], int] = {}
        by_key: Dict[Tuple[str, ...], Batch] = {}
        for value in top:
            counts[value.key] = counts.get(value.key, 0) + 1
            by_key[value.key] = value
        threshold = recovery_threshold(self.n)
        choosable = [by_key[key] for key, count in counts.items()
                     if count >= threshold]
        if len(choosable) == 1:
            return choosable[0]
        # No single choosable value: free choice -- merge every competing
        # batch so no client command is dropped (dedup handles repeats).
        return merge_batches(top)

    def _open_fast_round(self) -> None:
        self.max_round_seen += 1
        ballot = Ballot(self.max_round_seen, self.me, fast=True)
        trace_emit(self.sim, "paxos", self.node.name, event="fast_round",
                   round=ballot.round, from_instance=self.next_instance)
        self._broadcast(AnyMessage(ballot, self.next_instance))

    # ==================================================================
    # coordinator: single-instance recovery (collisions, gaps)
    # ==================================================================
    def _recover_instance(self, instance: int) -> None:
        if instance in self._recovering or instance in self.decided:
            return
        self.max_round_seen += 1
        ballot = Ballot(self.max_round_seen, self.me, fast=False)
        self._recovering[instance] = (ballot, {})
        self.stats["collisions_recovered"] += 1
        self._obs_collisions.inc()
        self._broadcast(PrepareInstance(ballot, instance))

    def _on_promise_instance(self, message: PromiseInstance, src: int) -> None:
        state = self._recovering.get(message.instance)
        if state is None or state[0] != message.ballot:
            return
        ballot, promises = state
        promises[src] = message
        if len(promises) < self.q1:
            return
        votes = [(p.vrnd, p.vval) for p in promises.values()
                 if p.vval is not None]
        value = self._pick_value(votes)
        if value.is_noop:
            self.stats["noops"] += 1
            self._obs_gap_noops.inc()
        del self._recovering[message.instance]
        self._broadcast(Phase2a(ballot, message.instance, value))

    # ==================================================================
    # acceptor side
    # ==================================================================
    def _effective_rnd(self, instance: int) -> Ballot:
        return max(self.min_promised, self.inst_rnd.get(instance, NULL_BALLOT))

    def _vote_fenced(self, instance: int, ballot: Ballot) -> bool:
        """Whether the rejoin fence forbids voting here (see fence_info)."""
        return (self.rejoin_fenced
                or instance <= self.vote_fence_instance
                or ballot.round <= self.vote_fence_round)

    def _observe_round(self, ballot: Ballot) -> None:
        if ballot.round > self.max_round_seen:
            self.max_round_seen = ballot.round

    def _on_prepare(self, message: Prepare, src: int) -> None:
        self._observe_round(message.ballot)
        if self.rejoin_fenced or self.watermark < self.vote_fence_instance:
            # Fenced below the rejoin marks: promising now could censor a
            # forgotten vote from the leader's phase-1 read.  Once the
            # watermark passes the fence, decided instances are learned
            # through the peer-watermark rule instead of re-proposed.
            return
        if message.ballot < self.min_promised:
            return
        previous = self.min_promised
        self.min_promised = message.ballot
        if self.fast_round is not None and message.ballot > self.fast_round:
            self.fast_round = None  # a higher classic ballot seals the round
        accepted = tuple(
            (instance, vrnd, vval)
            for instance, (vrnd, vval) in sorted(self.votes.items())
            if instance >= message.from_instance and instance > self.watermark)
        reply = Promise(message.ballot, message.from_instance, accepted,
                        self.watermark)
        if message.ballot == previous:
            self._send_to(src, reply)  # duplicate prepare: idempotent re-reply
            return

        def durable(_event) -> None:
            self._send_to(src, reply)

        self.wal.append(("promise", message.ballot),
                        self.config.promise_entry_mb).add_callback(durable)

    def _on_prepare_instance(self, message: PrepareInstance, src: int) -> None:
        self._observe_round(message.ballot)
        if self.rejoin_fenced or message.instance <= self.vote_fence_instance:
            return
        if message.ballot < self._effective_rnd(message.instance):
            return
        self.inst_rnd[message.instance] = message.ballot
        vrnd, vval = self.votes.get(message.instance, (NULL_BALLOT, None))
        reply = PromiseInstance(message.ballot, message.instance, vrnd, vval)

        def durable(_event) -> None:
            self._send_to(src, reply)

        self.wal.append(("inst_rnd", message.instance, message.ballot),
                        self.config.promise_entry_mb).add_callback(durable)

    def _on_any(self, message: AnyMessage, src: int) -> None:
        self._observe_round(message.ballot)
        if self.rejoin_fenced or message.ballot.round <= self.vote_fence_round:
            return
        if message.ballot < self.min_promised:
            return
        if self.fast_round is not None and message.ballot <= self.fast_round:
            return
        self.min_promised = message.ballot
        self.fast_round = message.ballot
        self.fast_from = message.from_instance
        self.wal.append(("fast", message.ballot, message.from_instance),
                        self.config.promise_entry_mb)
        self._reroute_unacked()

    def _on_phase2a(self, message: Phase2a, src: int) -> None:
        self._observe_round(message.ballot)
        self._note_seen_instance(message.instance)
        if self._vote_fenced(message.instance, message.ballot):
            return
        if message.ballot < self._effective_rnd(message.instance):
            return
        vrnd, vval = self.votes.get(message.instance, (NULL_BALLOT, None))
        if vrnd > message.ballot:
            return
        if vrnd == message.ballot and vval is not None:
            # Retransmission: vote already durable, just re-announce it.
            self._broadcast(Accepted(message.ballot, message.instance, vval))
            return
        self._vote(message.instance, message.ballot, message.value)

    def _on_fast_propose(self, message: FastPropose, src: int) -> None:
        self._observe_round(message.ballot)
        self._note_seen_instance(message.instance)
        if self._vote_fenced(message.instance, message.ballot):
            return
        reject = FastReject(message.ballot, message.instance)
        if self.fast_round is None or message.ballot != self.fast_round:
            self._send_to(src, reject)
            return
        if message.ballot < self._effective_rnd(message.instance):
            self._send_to(src, reject)
            return
        vrnd, _vval = self.votes.get(message.instance, (NULL_BALLOT, None))
        if vrnd >= message.ballot:
            # Already voted in this fast round: first proposal wins; tell
            # the loser so it relocates after one RTT instead of a timeout.
            self._send_to(src, reject)
            return
        if message.instance in self.decided or message.instance <= self.watermark:
            self._send_to(src, reject)
            return
        self._vote(message.instance, message.ballot, message.value)

    def _on_fast_reject(self, message: FastReject, src: int) -> None:
        batch = self._my_fast_proposals.get(message.instance)
        if batch is None:
            return
        rejects = self._fast_rejects.setdefault(message.instance, set())
        rejects.add(src)
        if len(rejects) <= self.n - self.fq:
            return  # a fast quorum is still possible
        # Lost this instance: relocate the still-undecided commands.
        del self._my_fast_proposals[message.instance]
        del self._fast_rejects[message.instance]
        self.stats["fast_rejected"] += 1
        self._obs_fast_rejected.inc()
        for command in batch.commands:
            if (not self._is_decided(command.uid)
                    and not self._already_pending(command.uid)):
                self._fast_pending.append(command)
        self._maybe_continue_fast()

    def _vote(self, instance: int, ballot: Ballot, value: Batch) -> None:
        self.inst_rnd[instance] = ballot
        self.votes[instance] = (ballot, value)
        announcement = Accepted(ballot, instance, value)

        def durable(_event) -> None:
            if getattr(self.sim, "storage_faults", None) is not None:
                # Votes leave an audit trail only when disks can lie: the
                # checker cross-examines them for a two-faced acceptor --
                # one that votes twice in the same ballot for different
                # values because its first vote was silently lost.
                trace_emit(self.sim, "accept", self.node.name,
                           instance=instance, round=ballot.round,
                           proposer=ballot.proposer, fast=ballot.fast,
                           key=value.key, inc=self.node.incarnation)
            self._broadcast(announcement)

        self.wal.append(("vote", instance, ballot, value),
                        value.size_mb()).add_callback(durable)

    # ==================================================================
    # learner side
    # ==================================================================
    def _note_seen_instance(self, instance: int) -> None:
        if instance > self.max_seen_instance:
            self.max_seen_instance = instance

    def _on_accepted(self, message: Accepted, src: int) -> None:
        self._observe_round(message.ballot)
        self._note_seen_instance(message.instance)
        instance = message.instance
        if instance <= self.watermark or instance in self.decided:
            return
        key = (message.ballot, message.value.key)
        per_instance = self._vote_sets.setdefault(instance, {})
        voters = per_instance.setdefault(key, set())
        voters.add(src)
        quorum = self.fq if message.ballot.fast else self.q2
        if len(voters) >= quorum:
            self._decide(instance, message.value)
            return
        if message.ballot.fast and self._is_coordinator():
            # Eager collision detection: recover as soon as no value can
            # possibly reach a fast quorum in this round.
            round_sets = [v for (b, _k), v in per_instance.items()
                          if b == message.ballot]
            heard: Set[int] = set().union(*round_sets)
            leading_votes = max(len(v) for v in round_sets)
            unheard = self.n - len(heard)
            if leading_votes + unheard < self.fq:
                self._recover_instance(instance)

    def _on_heartbeat(self, message: Heartbeat, src: int) -> None:
        self._peer_watermarks[src] = message.decided_watermark

    def _on_forward(self, message: Forward, src: int) -> None:
        command = message.command
        if self._is_decided(command.uid):
            return
        if self.leading:
            if not self._already_pending(command.uid):
                self._pending.append(command)
            if self._flush_timer is None:
                self._flush_timer = self.sim.call_after(
                    self.config.batch_window_s, self._flush_classic)
        else:
            # Not (yet) the coordinator: adopt the command so the retry
            # loop keeps it alive through the leadership change.
            if command.uid not in self.unacked:
                self.unacked[command.uid] = (command, self.sim.now)

    def _on_learn_request(self, message: LearnRequest, src: int) -> None:
        if message.from_instance < self.log_start:
            self._send_to(src, LearnReply((), self.watermark))
            return
        entries = []
        instance = message.from_instance
        while instance <= self.watermark and len(entries) < message.max_count:
            value = self.decided.get(instance)
            if value is None:
                break
            entries.append((instance, value))
            instance += 1
        self._send_to(src, LearnReply(tuple(entries), self.watermark))

    def _on_learn_reply(self, message: LearnReply, src: int) -> None:
        self._learn_inflight = False
        if not message.entries and message.decided_watermark < self.watermark + 1:
            return
        if not message.entries:
            # Peer has more decided than us but sent nothing: it truncated
            # its log below our ask -- we need a checkpoint transfer.
            if message.decided_watermark > self.watermark and \
                    self.on_truncated_peer is not None:
                self.on_truncated_peer(src)
            return
        for instance, value in message.entries:
            if instance > self.watermark and instance not in self.decided:
                self._decide(instance, value)
        if message.decided_watermark > self.watermark:
            self._request_learn(src)  # keep streaming

    # ------------------------------------------------------------------
    def _decide(self, instance: int, value: Batch) -> None:
        if instance in self.decided or instance <= self.watermark:
            return
        self.decided[instance] = value
        self.stats["decisions"] += 1
        self._obs_decisions.inc()
        trace_emit(self.sim, "decide", self.node.name, instance=instance,
                   key=value.key, inc=self.node.incarnation)
        self._recovering.pop(instance, None)
        self._drop_vote_tracking(instance)
        uids = self._uids
        for command in value.commands:
            uid = command.uid
            state = uids.get(uid)
            if state is None:
                uids[uid] = _DECIDED
            elif state == _RESTORED:
                uids[uid] = _DELIVERED
            self.unacked.pop(uid, None)
        self._fast_rejects.pop(instance, None)
        mine = self._my_fast_proposals.pop(instance, None)
        if mine is not None and mine.key != value.key:
            # Lost a fast-round collision: immediately repropose the
            # commands that were not decided here (dedup keeps this safe).
            for command in mine.commands:
                if not self._is_decided(command.uid):
                    self.unacked[command.uid] = (command, self.sim.now)
                    self._route(command)
        if mine is not None:
            self._maybe_continue_fast()
        self._advance_watermark()

    def _is_decided(self, uid: str) -> bool:
        """Whether this incarnation has decided ``uid`` (a uid restored
        from a checkpoint or transfer counts only once decided again)."""
        return self._uids.get(uid, _RESTORED) != _RESTORED

    def _log_restored(self, instance: int, delivered: Iterable[str]) -> None:
        """Record another replica's (or incarnation's) deliveries as
        delivered at ``instance``, which is above everything logged so
        far: the ones this replica has not logged yet join the log."""
        uids, log = self._uids, self._log
        for uid in delivered:
            state = uids.get(uid)
            if state is None:
                uids[uid] = _RESTORED
            elif state == _DECIDED:
                uids[uid] = _DELIVERED
            else:
                continue
            log.append(uid)
        self._mark(instance)

    def _mark(self, instance: int) -> None:
        """The log's entries so far were all delivered at or below
        ``instance`` (the highest instance marked yet)."""
        length = len(self._log)
        if not self._mark_lengths or self._mark_lengths[-1] != length:
            self._mark_instances.append(instance)
            self._mark_lengths.append(length)

    def _advance_watermark(self) -> None:
        advanced = False
        uids, log = self._uids, self._log
        while (self.watermark + 1) in self.decided:
            self.watermark += 1
            advanced = True
            batch = self.decided[self.watermark]
            fresh = []
            for command in batch.commands:
                uid = command.uid
                if uids.get(uid, _DECIDED) == _DECIDED:
                    uids[uid] = _DELIVERED
                    log.append(uid)
                    fresh.append(command)
            if fresh:
                self._mark(self.watermark)
            trace_emit(self.sim, "deliver", self.node.name,
                       instance=self.watermark, key=batch.key,
                       fresh=tuple(c.uid for c in fresh),
                       inc=self.node.incarnation)
            self.delivery.put((self.watermark, tuple(fresh)))
        if advanced:
            self._last_advance = self.sim.now
            if self.leading and self.next_instance <= self.watermark:
                self.next_instance = self.watermark + 1

    def _drop_vote_tracking(self, instance: int) -> None:
        self._vote_sets.pop(instance, None)

    # ==================================================================
    _HANDLERS = {}


PaxosEngine._HANDLERS = {
    Prepare: PaxosEngine._on_prepare,
    Promise: PaxosEngine._on_promise,
    PrepareInstance: PaxosEngine._on_prepare_instance,
    PromiseInstance: PaxosEngine._on_promise_instance,
    AnyMessage: PaxosEngine._on_any,
    Phase2a: PaxosEngine._on_phase2a,
    FastPropose: PaxosEngine._on_fast_propose,
    FastReject: PaxosEngine._on_fast_reject,
    Accepted: PaxosEngine._on_accepted,
    Forward: PaxosEngine._on_forward,
    Heartbeat: PaxosEngine._on_heartbeat,
    LearnRequest: PaxosEngine._on_learn_request,
    LearnReply: PaxosEngine._on_learn_reply,
}
