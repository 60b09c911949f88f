"""Causal span tracing: per-interaction spans across every layer.

A *trace* is one TPC-W interaction.  The RBE stamps its request with a
trace id; the id rides inside the ``Request`` payload through proxy and
server, is picked up by the replica's request process (``sim._current``),
and so reaches the treplica ``execute`` path and the 2PC coordinator
without any component threading an explicit context argument.

A span is an *interval event* on the simulator's event log
(:mod:`repro.sim.trace`): the site notes ``start = sim.now`` when the
episode begins and, when it ends, emits one event whose ``time`` is the
end and whose fields carry ``start`` (and ``trace`` where the episode
belongs to an interaction).  Every network message hop, disk operation,
proxy/CPU queueing episode, replicated execute, state-machine apply
batch and checkpoint is one such event.  :class:`SpanTracer` is the log
subscriber that keeps them (:attr:`SpanTracer.KINDS`), together with
the point events worth drawing on the same timeline (2PC decisions,
Paxos rounds, storage faults) and, apart, the recovery milestones
(:attr:`SpanTracer.marks`) that :func:`recovery_phases` reads.

Per-message and per-op sites capture the log once, when built, through
:func:`~repro.sim.trace.log_for` -- ``None`` unless some subscriber takes
their kind -- and guard each emission with a single ``is not None``
check.  Emitting reads only ``sim.now`` -- no simulator events, no RNG
draws -- so a traced run is bit-for-bit identical to an untraced run at
the same seed (``tests/obs/test_trace.py`` locks this).

On top of the kept events sit the analyzers:

* :func:`critical_path` -- decomposes each interaction's measured WIRT
  into queueing / network / disk / quorum / apply buckets that sum to
  the response time exactly (a priority sweep over the root span's
  timeline; uncovered time is "other").
* :func:`recovery_phases` -- splits each recovery window into the
  paper's detection -> election -> checkpoint -> catch-up -> replay
  phases using the recovery milestones, clamped so the phases
  partition ``[crashed_at, ready_at]`` exactly.
* :func:`injection_points` -- the fault explorer's candidate faults,
  read off the 2PC spans of a golden run.

Exports are JSONL (one span, instant or milestone per line) and Chrome
trace-event JSON (``ph: "X"`` complete events and ``ph: "i"`` instants
on one thread per node), loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import Event, Tracer

__all__ = [
    "BUCKETS",
    "CriticalPathReport",
    "InjectionPoint",
    "RECOVERY_PHASES",
    "SpanTracer",
    "critical_path",
    "current_trace",
    "injection_points",
    "recovery_phases",
]


def current_trace(sim) -> Optional[str]:
    """Trace id of the currently resuming process, if it carries one.

    The kernel tracks the process being resumed in ``sim._current``;
    the web server stamps each request-handling process with the
    request's trace id, so anything running under it (servlets, the
    database, ``TreplicaRuntime.execute``, the 2PC coordinator) can
    recover the causal context without plumbing arguments.
    """
    process = getattr(sim, "_current", None)
    if process is None:
        return None
    return getattr(process, "trace", None)


class SpanTracer(Tracer):
    """The span subscriber: keeps the interval and instant events of
    :attr:`KINDS` in :attr:`spans` (bounded at ``max_spans``, past which
    :attr:`dropped` counts the loss) and the recovery milestones in
    :attr:`marks`.

    The harness subscribes :meth:`take` to :attr:`KINDS` and
    ``marks.append`` to :attr:`MILESTONES` before any component is
    built.  An interval event carries a ``start`` field; an instant
    does not.
    """

    #: The interval kinds, then the instants drawn on the same timeline.
    KINDS = frozenset({
        "interaction", "net", "proxy.queue", "server.cpu", "execute",
        "apply", "disk", "checkpoint", "txn.prepare", "txn.participant",
        "txn.decide", "txn.resolve", "paxos.phase1", "paxos.fast_round",
        "storage.fence_installed", "storage.fsynclie_lost",
        "storage.corrupted", "storage.torn_object", "storage.torn_write",
    })

    #: The recovery milestones :func:`recovery_phases` reads.
    MILESTONES = frozenset({
        "paxos.elected", "recovery.checkpoint_loaded",
        "recovery.checkpoint_transferred", "recovery.caught_up",
        "recovery.scrub", "recovery.repaired_from_peer",
    })

    def __init__(self, max_spans: int = 2_000_000):
        super().__init__(max_spans)
        self.marks: List[Event] = []

    @property
    def spans(self) -> List[Event]:
        """The kept interval and instant events, in emission order."""
        return self.events

    # -- exports -------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per line: spans and instants, then marks."""
        lines = [json.dumps(_jsonl_record(event), sort_keys=True)
                 for event in self.spans + self.marks]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: one pid, one tid per node.

        Interval events become complete (``ph: "X"``) events carrying
        the kind as the event name and the trace id in ``args``; point
        events become thread-scoped instants (milestones in category
        ``mark``).  Timestamps are microseconds of sim time, so the
        Perfetto ruler reads directly in simulated wall clock.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[str, int] = {}

        def tid_of(node: str) -> int:
            tid = tids.get(node)
            if tid is None:
                tid = tids[node] = len(tids) + 1
                events.append({"ph": "M", "pid": 1, "tid": tid,
                               "name": "thread_name",
                               "args": {"name": node}})
            return tid

        def add(event: Event, cat: str) -> None:
            args = _jsonable(event.fields)
            start = args.pop("start", None)
            if args.get("trace", "") is None:
                del args["trace"]
            record = {"pid": 1, "tid": tid_of(event.node),
                      "name": event.kind, "cat": cat, "args": args}
            if start is None:
                record.update(ph="i", s="t", ts=round(event.time * 1e6, 3))
            else:
                record.update(ph="X", ts=round(start * 1e6, 3),
                              dur=round((event.time - start) * 1e6, 3))
            events.append(record)

        for event in self.spans:
            add(event, event.kind.split(".")[0])
        for mark in self.marks:
            add(mark, "mark")
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonl_record(event: Event) -> Dict[str, Any]:
    fields = _jsonable(event.fields)
    start = fields.pop("start", None)
    if start is None:
        return {"type": "mark", "name": event.kind, "node": event.node,
                "time": event.time, "fields": fields}
    return {"type": "span", "id": event.seq, "kind": event.kind,
            "node": event.node, "trace": fields.pop("trace", None),
            "start": start, "end": event.time, "fields": fields}


def _jsonable(fields: Iterable[Tuple[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in fields:
        if isinstance(value, tuple):
            value = list(value)
        elif not isinstance(value, (str, int, float, bool, list,
                                    dict, type(None))):
            value = str(value)
        out[key] = value
    return out


# ----------------------------------------------------------------------
# analyzer 1: WIRT critical-path decomposition
# ----------------------------------------------------------------------
#: Decomposition buckets, in report order.
BUCKETS = ("queueing", "network", "disk", "quorum", "apply", "other")

#: bucket and preemption priority for spans that carry the trace id.
#: Higher priority wins where segments overlap (disk under an execute
#: window beats the execute span itself, which beats the network hop
#: that happened to overlap).
_TRACE_BUCKETS = {
    "net": ("network", 1),
    "proxy.queue": ("queueing", 2),
    "server.cpu": ("queueing", 2),
    "execute": ("quorum", 3),
    "txn.prepare": ("quorum", 3),
}
_APPLY_PRIORITY = 4
_DISK_PRIORITY = 5


#: One interval event as the analyzers read it: ``(start, end, event)``.
_Interval = Tuple[float, float, Event]


def _intervals(tracer: SpanTracer) -> Iterable[_Interval]:
    """The tracer's interval events (instants skipped), in emit order."""
    for event in tracer.spans:
        start = event.get("start")
        if start is not None:
            yield start, event.time, event


def _by_start(intervals: List[_Interval]) -> List[_Interval]:
    """``intervals`` in the order their episodes began."""
    return sorted(intervals, key=lambda interval: interval[0])


class _NodeIndex:
    """Interval index over one node's spans: sorted starts + prefix-max
    ends, so ``overlapping(a, b)`` is exact without scanning everything."""

    def __init__(self, intervals: List[_Interval]):
        self.intervals = _by_start(intervals)
        self.starts = [start for start, _end, _event in self.intervals]
        self.max_end: List[float] = []
        running = -math.inf
        for _start, end, _event in self.intervals:
            running = max(running, end)
            self.max_end.append(running)

    def overlapping(self, a: float, b: float) -> List[_Interval]:
        hi = bisect.bisect_left(self.starts, b)
        lo, r = 0, hi
        while lo < r:  # leftmost index whose prefix-max end exceeds a
            mid = (lo + r) // 2
            if self.max_end[mid] > a:
                r = mid
            else:
                lo = mid + 1
        return [iv for iv in self.intervals[lo:hi] if iv[1] > a]


@dataclass
class CriticalPathReport:
    """Per-interaction WIRT decompositions plus aggregate views."""

    interactions: List[Dict[str, Any]]

    def totals(self) -> Dict[str, float]:
        """Summed seconds per bucket across all interactions."""
        totals = {bucket: 0.0 for bucket in BUCKETS}
        for entry in self.interactions:
            for bucket, seconds in entry["buckets"].items():
                totals[bucket] += seconds
        return totals

    def network_split_totals(self) -> Dict[str, float]:
        """Summed intra-DC vs WAN seconds inside the network bucket.

        On non-geo runs every hop is intra-DC, so ``wan`` is 0.0 and
        ``intra`` equals the network total.
        """
        totals = {"intra": 0.0, "wan": 0.0}
        for entry in self.interactions:
            totals["intra"] += entry["network_split"]["intra"]
            totals["wan"] += entry["network_split"]["wan"]
        return totals

    def bucket_quantiles(
            self, qs: Iterable[float] = (0.5, 0.9, 0.99),
    ) -> Dict[str, Dict[str, float]]:
        """Per-bucket quantiles/mean/share over per-interaction seconds."""
        wirt_total = sum(e["wirt_s"] for e in self.interactions) or 1.0
        out: Dict[str, Dict[str, float]] = {}
        for bucket in BUCKETS:
            values = sorted(e["buckets"][bucket] for e in self.interactions)
            row: Dict[str, float] = {}
            for q in qs:
                row[f"p{int(round(q * 100))}"] = _percentile(values, q)
            row["mean"] = (sum(values) / len(values)) if values else 0.0
            row["share_pct"] = 100.0 * sum(values) / wirt_total
            out[bucket] = row
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"interactions": self.interactions,
                "totals": self.totals(),
                "network_split": self.network_split_totals(),
                "quantiles": self.bucket_quantiles()}


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def critical_path(tracer: SpanTracer,
                  include_failed: bool = False) -> CriticalPathReport:
    """Attribute each interaction's response time to latency buckets.

    For every root ``interaction`` span the decomposer collects the
    trace's own spans (hops, queueing, execute/2PC waits), plus the
    node-level ``disk`` and ``apply`` spans that overlap the trace's
    ``execute`` windows on the executing replica, clips everything to
    the root window, and sweeps the timeline: each elementary interval
    is charged to the highest-priority covering segment, uncovered time
    to "other".  The buckets therefore partition ``[start, end]`` and
    sum to the measured WIRT exactly.
    """
    by_trace: Dict[str, List[_Interval]] = {}
    disk_by_node: Dict[str, List[_Interval]] = {}
    apply_by_node: Dict[str, List[_Interval]] = {}
    roots: List[_Interval] = []
    for interval in _intervals(tracer):
        event = interval[2]
        if event.kind == "disk":
            disk_by_node.setdefault(event.node, []).append(interval)
        elif event.kind == "apply":
            apply_by_node.setdefault(event.node, []).append(interval)
        elif event.kind == "interaction":
            roots.append(interval)
        else:
            trace = event.get("trace")
            if trace is not None:
                by_trace.setdefault(trace, []).append(interval)
    disk_index = {node: _NodeIndex(intervals)
                  for node, intervals in disk_by_node.items()}
    apply_index = {node: _NodeIndex(intervals)
                   for node, intervals in apply_by_node.items()}

    interactions = []
    for t0, t1, root in _by_start(roots):
        if not include_failed and not root.get("ok", True):
            continue
        if t1 <= t0:
            continue
        segments: List[Tuple[float, float, str, int]] = []
        for start, end, span in _by_start(by_trace.get(root["trace"], [])):
            mapped = _TRACE_BUCKETS.get(span.kind)
            if mapped is None:
                continue
            a, b = max(start, t0), min(end, t1)
            if b <= a:
                continue
            bucket, priority = mapped
            if span.kind == "net":
                # Geo runs tag cross-datacenter hops (repro.geo); the
                # sweep folds both sub-buckets back into "network" so
                # the split is a refinement, not a new bucket.
                bucket = ("network#wan" if span.get("wan")
                          else "network#intra")
            segments.append((a, b, bucket, priority))
            if span.kind != "execute":
                continue
            # Disk syncs and apply batches are node-level (they serve
            # many commands at once); charge the slices that overlap
            # this trace's quorum-wait window on the executing replica.
            disk = disk_index.get(f"{span.node}-disk")
            if disk is not None:
                for c, d, _other in disk.overlapping(a, b):
                    c, d = max(c, a), min(d, b)
                    if d > c:
                        segments.append((c, d, "disk", _DISK_PRIORITY))
            batches = apply_index.get(span.node)
            if batches is not None:
                for c, d, _other in batches.overlapping(a, b):
                    c, d = max(c, a), min(d, b)
                    if d > c:
                        segments.append((c, d, "apply", _APPLY_PRIORITY))
        buckets, network_split = _sweep(t0, t1, segments)
        interactions.append({
            "trace": root["trace"],
            "interaction": root.get("interaction"),
            "client": root.node,
            "start": t0,
            "wirt_s": t1 - t0,
            "ok": bool(root.get("ok", True)),
            "buckets": buckets,
            "network_split": network_split,
        })
    return CriticalPathReport(interactions)


def _sweep(t0: float, t1: float,
           segments: List[Tuple[float, float, str, int]],
           ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Charge each elementary interval of ``[t0, t1]`` to the
    highest-priority covering segment; leftovers go to "other".

    Network time is accumulated per sub-bucket (``network#intra`` /
    ``network#wan``, see :func:`critical_path`) and the "network"
    bucket is *defined* as their sum, so the returned split components
    always add up to the network bucket exactly -- bit-for-bit, not
    just within float tolerance.
    """
    buckets = {bucket: 0.0 for bucket in BUCKETS}
    split = {"intra": 0.0, "wan": 0.0}
    cuts = {t0, t1}
    for a, b, _bucket, _priority in segments:
        cuts.add(a)
        cuts.add(b)
    points = sorted(cuts)
    for left, right in zip(points, points[1:]):
        if right <= left:
            continue
        midpoint = (left + right) / 2.0
        best, best_priority = "other", 0
        for a, b, bucket, priority in segments:
            if priority > best_priority and a <= midpoint < b:
                best, best_priority = bucket, priority
        if best == "network#intra":
            split["intra"] += right - left
        elif best == "network#wan":
            split["wan"] += right - left
        else:
            buckets[best] += right - left
    buckets["network"] = split["intra"] + split["wan"]
    return buckets, split


# ----------------------------------------------------------------------
# analyzer 3: fault-injection-point extraction (repro.faults.explore)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InjectionPoint:
    """One candidate fault derived from a golden run's 2PC hop graph.

    ``signature`` is the dynamic-equivalence key
    ``(interaction, stage, role)``: two concrete points with the same
    signature perturb the same protocol step of the same interaction
    class (on possibly different transactions/replicas), so the
    explorer executes only the earliest of them.  Times are **sim
    seconds** of the golden run; the explorer converts them to
    paper-timeline faultload specs (multiply by ``scale.time_div``).
    """

    signature: Tuple[str, str, str]
    kind: str                  # "crash" | "drop"
    at: float                  # sim-time
    node: str                  # crash: the victim; drop: "src->dst"
    until: Optional[float] = None   # drop window end (sim-time)
    trace: Optional[str] = None
    tx: Optional[str] = None

    @property
    def stage(self) -> str:
        return self.signature[1]


#: Crash offset: far enough from the span edge to dodge the float
#: rounding of the paper-seconds round trip (spec times keep 4
#: decimals; at time_div=20 that is 5e-6 sim-s of slack), close enough
#: that no other protocol step fits in between.
_INJECT_EPS = 1e-4
#: Half-width of a drop window around one message's send instant.  The
#: nemesis rolls dice at *send* time, so the window only has to cover
#: that instant; 5 ms stays far under the 2PC retry timeout (1 s), so a
#: window can never eat the retry it is supposed to provoke.
_DROP_HALF_S = 0.005


def injection_points(tracer: SpanTracer,
                     interactions: Optional[Iterable[str]] = None,
                     cutoff: Optional[float] = None) -> List[InjectionPoint]:
    """Enumerate candidate faults from a traced run's 2PC spans.

    Walks every coordinator ``txn.prepare`` span (with its participant
    spans and ``txn.decide`` event, joined on the tx id) and emits, per
    transaction:

    * **coordinator crashes** around every protocol step --
      ``prepare.send`` (first prepare in flight), ``prepare.wait``
      (mid-vote-collection), ``prepare.done`` (all votes in, nothing
      decided -- the classic orphan window), ``commit.order`` (the home
      commit record is being ordered), ``decide.after`` (decision
      broadcast just sent);
    * **participant crashes** around each foreign prepare --
      ``participant.recv`` (ordering the TxPrepare) and
      ``participant.voted`` (vote sent, decision pending);
    * **message drops** on each directed 2PC hop -- ``drop.prepare``,
      ``drop.vote``, ``drop.decision`` -- as probability-1 nemesis
      windows around the send instant of one concrete message.

    Every concrete occurrence is returned (sorted by time, then
    signature); the explorer dedupes by signature.  ``interactions``
    restricts to those interaction classes; ``cutoff`` (sim-time) drops
    points too late in the run to observe recovery afterwards.
    """
    interaction_of: Dict[str, str] = {}
    prepares: List[_Interval] = []
    participants_by_tx: Dict[str, List[_Interval]] = {}
    for interval in _intervals(tracer):
        span = interval[2]
        if span.kind == "interaction":
            interaction_of[span["trace"]] = span.get("interaction")
        elif span.kind == "txn.prepare":
            prepares.append(interval)
        elif span.kind == "txn.participant":
            participants_by_tx.setdefault(span["tx"], []).append(interval)
    decide_at: Dict[str, float] = {}
    for decide in tracer.select("txn.decide"):
        decide_at.setdefault(decide["tx"], decide.time)
    wanted = None if interactions is None else set(interactions)

    points: List[InjectionPoint] = []

    def add(iclass: str, stage: str, role: str, kind: str, at: float,
            node: str, until: Optional[float], trace, tx) -> None:
        if cutoff is not None and at > cutoff:
            return
        points.append(InjectionPoint(
            signature=(iclass, stage, role), kind=kind, at=at, node=node,
            until=until, trace=trace, tx=tx))

    for prep_start, prep_end, prep in _by_start(prepares):
        iclass = interaction_of.get(prep.get("trace"))
        if iclass is None or (wanted is not None and iclass not in wanted):
            continue
        tx = prep["tx"]
        trace = prep["trace"]
        coord = prep.node

        def crash(stage: str, role: str, at: float, node: str) -> None:
            add(iclass, stage, role, "crash", at, node, None, trace, tx)

        def drop(stage: str, role: str, send_at: float, pair: str) -> None:
            add(iclass, stage, role, "drop", send_at - _DROP_HALF_S,
                pair, send_at + _DROP_HALF_S, trace, tx)

        crash("prepare.send", "coordinator", prep_start + _INJECT_EPS, coord)
        crash("prepare.wait", "coordinator",
              (prep_start + prep_end) / 2.0, coord)
        crash("prepare.done", "coordinator", prep_end + _INJECT_EPS, coord)
        decided = decide_at.get(tx)
        if decided is not None:
            if decided - _INJECT_EPS > prep_end:
                # While the home group orders the commit record.
                crash("commit.order", "coordinator",
                      (prep_end + decided) / 2.0, coord)
            crash("decide.after", "coordinator",
                  decided + _INJECT_EPS, coord)
        for start, end, part in _by_start(participants_by_tx.get(tx, [])):
            crash("participant.recv", "participant",
                  start + _INJECT_EPS, part.node)
            crash("participant.voted", "participant",
                  end + _INJECT_EPS, part.node)
            # The prepare's send instant: arrival minus the network
            # latency -- covered generously by the window half-width.
            drop("drop.prepare", "coordinator>participant",
                 start, f"{coord}->{part.node}")
            drop("drop.vote", "participant>coordinator",
                 end, f"{part.node}->{coord}")
            if decided is not None:
                drop("drop.decision", "coordinator>participant",
                     decided, f"{coord}->{part.node}")
    points.sort(key=lambda p: (p.at, p.signature, p.node))
    return points


# ----------------------------------------------------------------------
# analyzer 2: recovery-phase forensics
# ----------------------------------------------------------------------
#: Phase names, in chronological order.
RECOVERY_PHASES = ("detection", "election", "checkpoint", "catchup",
                   "replay")


def recovery_phases(tracer: SpanTracer,
                    recoveries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Split each recovery window into the paper's phases.

    Milestones inside ``[crashed_at, ready_at]``:

    * ``rebooted_at`` (from the recovery record) ends **detection** --
      the watchdog noticing the crash and restarting the process;
    * the last ``paxos.elected`` mark in the replica's group ends
      **election**;
    * the replica's ``recovery.checkpoint_loaded`` /
      ``recovery.checkpoint_transferred`` mark ends **checkpoint**
      (local restore or remote state transfer);
    * the replica's ``recovery.caught_up`` mark (applied watermark
      reached the target observed at boot) ends **catchup**;
    * everything after, until ``ready_at``, is **replay** -- draining
      the residual decided-but-unapplied tail and the caught-up poll.

    Each milestone is clamped to be monotone and inside the window, and
    a missing milestone collapses its phase to zero, so the five phases
    always partition ``[crashed_at, ready_at]`` exactly.

    Storage-fault recoveries additionally report ``repair_s``: the span
    from the replica's ``recovery.scrub`` mark (damaged durable
    state detected) to its last ``recovery.repaired_from_peer`` mark
    (replacement state installed), 0.0 when no repair happened.  Repair
    overlaps the phases above (it *is* mostly checkpoint/catchup work),
    so it is an attribution, not a sixth partition slice.
    """
    reports = []
    for event in recoveries:
        ready = event.get("ready_at")
        if ready is None:
            continue  # never came back inside the run
        crashed = event["crashed_at"]
        rebooted = event["rebooted_at"]
        shard = event.get("shard")
        prefix = f"s{shard}." if shard is not None else ""
        node = event["node"]

        def clamp(candidate: float, floor: float) -> float:
            return min(max(candidate, floor), ready)

        def times(*kinds: str, group: bool = False) -> List[float]:
            """This replica's (or its group's) milestones in the window."""
            return [m.time for m in tracer.marks
                    if m.kind in kinds and crashed < m.time <= ready
                    and (m.node.startswith(prefix) if group
                         else m.node == node)]

        detection_end = clamp(rebooted, crashed)
        elected = times("paxos.elected", group=True)
        election_end = clamp(max(elected), detection_end) if elected \
            else detection_end
        loaded = times("recovery.checkpoint_loaded",
                       "recovery.checkpoint_transferred")
        checkpoint_end = clamp(min(loaded), election_end) if loaded \
            else election_end
        caught = times("recovery.caught_up")
        catchup_end = clamp(min(caught), checkpoint_end) if caught \
            else checkpoint_end
        scrubbed = times("recovery.scrub")
        repaired = times("recovery.repaired_from_peer")
        repair_s = (max(repaired) - min(scrubbed)) \
            if scrubbed and repaired else 0.0

        reports.append({
            "replica": event["replica"],
            "shard": shard,
            "node": node,
            "crashed_at": crashed,
            "rebooted_at": rebooted,
            "ready_at": ready,
            "total_s": ready - crashed,
            "repair_s": repair_s,
            "phases": {
                "detection": detection_end - crashed,
                "election": election_end - detection_end,
                "checkpoint": checkpoint_end - election_end,
                "catchup": catchup_end - checkpoint_end,
                "replay": ready - catchup_end,
            },
        })
    return reports
