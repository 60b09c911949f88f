"""Causal span tracing: parity, critical path, recovery forensics.

The two load-bearing invariants from the tracer's contract:

* a traced run is **bit-for-bit identical** to an untraced run at the
  same seed (recording is appends only -- no events, no RNG);
* the analyzers are **exact decompositions**: critical-path buckets sum
  to each interaction's measured WIRT, and the five recovery phases
  partition ``[crashed_at, ready_at]``.
"""

import json
import math

import pytest

from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment
from repro.harness.experiments import MissingTraceError
from repro.obs.trace import (
    BUCKETS,
    RECOVERY_PHASES,
    SpanTracer,
    critical_path,
    recovery_phases,
)
from repro.sim import Network, Node, SeedTree, Simulator
from repro.sim.network import Nemesis, NemesisParams, NemesisWindow
from repro.sim.trace import EventLog, log_for

pytestmark = pytest.mark.trace

SEED = 20090629


def _experiment(**kwargs):
    return (Experiment(tiny_scale(), replicas=3, num_ebs=30,
                       seed=SEED, **kwargs)
            .load("closed", wips=400.0))


@pytest.fixture(scope="module")
def traced_crash():
    return _experiment().one_crash(replica=1).trace().run()


@pytest.fixture(scope="module")
def traced_baseline():
    return _experiment().baseline().trace().run()


# ----------------------------------------------------------------------
# satellite: zero-cost when disabled (bit-for-bit parity)
# ----------------------------------------------------------------------
def test_traced_run_is_bit_for_bit_identical(traced_crash):
    plain = _experiment().one_crash(replica=1).run()
    assert traced_crash.wips_series() == plain.wips_series()
    assert traced_crash.recoveries == plain.recoveries
    assert traced_crash.to_dict() == plain.to_dict()
    assert plain.spans is None
    assert traced_crash.spans is not None


def test_traced_run_same_safety_trace():
    # Same structured consensus trace with and without span tracing,
    # read off the kept cluster's safety audit.
    traces = []

    def run(config):
        result = Experiment.from_config(config).keep_cluster().run()
        audit = result.cluster.audit
        traces.append([(e.time, e.kind, e.node, e.fields)
                       for e in audit.events])

    base = dict(replicas=3, num_ebs=30, offered_wips=400.0,
                scale=tiny_scale(), seed=7, safety_tracing=True)
    run(ClusterConfig(**base))
    run(ClusterConfig(span_tracing=True, **base))
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0


def test_untraced_result_raises_missing_trace_error():
    plain = _experiment().baseline().run()
    with pytest.raises(MissingTraceError, match=r"\.trace\(\)"):
        plain.critical_path()
    with pytest.raises(MissingTraceError):
        plain.recovery_phases()


# ----------------------------------------------------------------------
# analyzer 1: critical path sums to WIRT exactly
# ----------------------------------------------------------------------
def test_critical_path_buckets_sum_to_wirt(traced_baseline):
    report = traced_baseline.critical_path()
    assert len(report.interactions) > 100
    for entry in report.interactions:
        assert set(entry["buckets"]) == set(BUCKETS)
        assert sum(entry["buckets"].values()) == \
            pytest.approx(entry["wirt_s"], abs=1e-9)
        assert all(v >= 0.0 for v in entry["buckets"].values())


def test_critical_path_aggregates(traced_baseline):
    report = traced_baseline.critical_path()
    totals = report.totals()
    assert set(totals) == set(BUCKETS)
    wirt_sum = sum(e["wirt_s"] for e in report.interactions)
    assert sum(totals.values()) == pytest.approx(wirt_sum, abs=1e-6)
    quantiles = report.bucket_quantiles()
    # shares are percentages of total WIRT and cover all of it
    assert sum(row["share_pct"] for row in quantiles.values()) == \
        pytest.approx(100.0, abs=1e-6)
    for row in quantiles.values():
        assert row["p50"] <= row["p90"] <= row["p99"]
    # a real workload queues and waits on consensus
    assert totals["queueing"] > 0.0
    assert totals["quorum"] > 0.0
    assert report.to_dict()["totals"] == totals


def test_critical_path_empty_tracer():
    report = critical_path(SpanTracer())
    assert report.interactions == []
    assert all(v == 0.0 for v in report.totals().values())


# ----------------------------------------------------------------------
# analyzer 2: recovery phases partition the window exactly
# ----------------------------------------------------------------------
def _assert_partitions(result):
    reports = result.recovery_phases()
    assert len(reports) == len(
        [r for r in result.recoveries if r["ready_at"] is not None])
    for report in reports:
        assert tuple(report["phases"]) == RECOVERY_PHASES
        assert all(v >= 0.0 for v in report["phases"].values())
        assert report["total_s"] == pytest.approx(
            report["ready_at"] - report["crashed_at"], abs=1e-12)
        assert sum(report["phases"].values()) == \
            pytest.approx(report["total_s"], abs=1e-9)
    return reports


def test_one_crash_phases_partition_window(traced_crash):
    reports = _assert_partitions(traced_crash)
    assert len(reports) == 1
    phases = reports[0]["phases"]
    # the watchdog poll bounds detection, the checkpoint restore and the
    # catch-up transfer dominate -- the paper's Section 5 recovery shape
    assert phases["detection"] > 0.0
    assert phases["checkpoint"] > 0.0


def test_sequential_crashes_phase_breakdown():
    result = _experiment().sequential_crashes().trace().run()
    reports = _assert_partitions(result)
    assert len(reports) == 2
    # the recoveries are sequential, not overlapping
    first, second = sorted(reports, key=lambda r: r["crashed_at"])
    assert first["ready_at"] < second["crashed_at"]


def test_recovery_phases_skip_incomplete_and_survive_missing_marks():
    tracer = SpanTracer()  # no marks recorded at all
    records = [
        {"replica": 1, "shard": None, "crashed_at": 10.0,
         "rebooted_at": 12.0, "ready_at": 20.0},
        {"replica": 2, "shard": None, "crashed_at": 10.0,
         "rebooted_at": 12.0, "ready_at": None},  # never came back
    ]
    reports = recovery_phases(tracer, records)
    assert len(reports) == 1
    phases = reports[0]["phases"]
    assert phases["detection"] == pytest.approx(2.0)
    assert phases["election"] == phases["checkpoint"] \
        == phases["catchup"] == 0.0
    assert phases["replay"] == pytest.approx(8.0)


# ----------------------------------------------------------------------
# fault attribution and sharded 2PC linkage
# ----------------------------------------------------------------------
def test_nemesis_drops_annotate_net_spans():
    result = (_experiment().baseline()
              .nemesis("drop@60-300:p=0.3").trace().run())
    causes = [span.get("cause") for span in result.spans.select("net")]
    assert "dropped" in causes


def test_partition_annotates_net_spans():
    result = (_experiment().partition(replica=2, duration_s=60.0)
              .trace().run())
    causes = [span.get("cause") for span in result.spans.select("net")]
    assert "partition" in causes


def test_sharded_run_links_2pc_spans():
    result = (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=11)
              .load("closed", wips=400.0)
              .shards(2).baseline().trace().run())
    tracer = result.spans
    prepares = tracer.select("txn.prepare")
    participants = tracer.select("txn.participant")
    decides = tracer.select("txn.decide")
    assert prepares and participants and decides
    # coordinator spans carry the interaction's trace id; participant
    # spans on the remote shard link back through the transaction id
    tx_ids = {span["tx"] for span in prepares}
    assert all(span["trace"] is not None for span in prepares)
    assert any(span["tx"] in tx_ids for span in participants)
    assert {span["tx"] for span in decides} == tx_ids
    # the decision is the 2PC's one txn.decide event, kept as an instant
    assert all(span.get("start") is None for span in decides)
    # each replica group's stream is told apart by its node prefix
    nodes = {span.node for span in tracer.spans}
    assert any(node.startswith("s0.") for node in nodes)
    assert any(node.startswith("s1.") for node in nodes)


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_retried_attempts_keep_their_interactions_trace(mode):
    # Every attempt of a retried interaction carries the interaction's
    # trace id, so each traced span has a root.  The only exceptions are
    # interactions still in flight when the run stops: the replica is
    # back long before the end, so those began in its last second.
    result = (Experiment(tiny_scale(), replicas=3, seed=7)
              .load(mode, wips=400.0, retry="immediate")
              .one_crash().trace().keep_cluster().run())
    roots = {span["trace"] for span in result.spans.select("interaction")}
    first_start = {}
    for span in result.spans.spans:
        trace = span.get("trace")
        if trace is not None and trace not in roots:
            first_start[trace] = min(span["start"],
                                     first_start.get(trace, math.inf))
    end = result.cluster.sim.now
    assert len(roots) > 1000
    assert all(start > end - 1.0 for start in first_start.values()), \
        sorted(first_start.values())[:5]


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def test_chrome_export_is_valid_trace_event_json(traced_crash):
    document = traced_crash.spans.to_chrome()
    payload = json.loads(json.dumps(document))  # round-trips
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) > 1000
    assert all(e["dur"] >= 0.0 and e["ts"] >= 0.0 for e in complete)
    assert all(e["pid"] == 1 for e in complete)
    named = {e["args"]["name"] for e in metadata
             if e["name"] == "thread_name"}
    assert "replica0" in named and "proxy" in named
    assert any(e["name"] == "recovery.caught_up" for e in instants)


def test_jsonl_export_parses_line_by_line(traced_crash):
    lines = traced_crash.spans.to_jsonl().splitlines()
    assert len(lines) > 1000
    kinds = set()
    for line in lines:
        record = json.loads(line)
        assert record["type"] in ("span", "mark")
        if record["type"] == "span":
            assert record["end"] >= record["start"]
            kinds.add(record["kind"])
    assert {"interaction", "net", "disk", "execute"} <= kinds


# ----------------------------------------------------------------------
# SpanTracer unit behavior
# ----------------------------------------------------------------------
class _ClockSim:
    def __init__(self):
        self.now = 0.0


def _subscribed(sim, max_spans=2_000_000):
    log = EventLog(sim)
    tracer = SpanTracer(max_spans=max_spans)
    log.subscribe(SpanTracer.KINDS, tracer.take)
    log.subscribe(SpanTracer.MILESTONES, tracer.marks.append)
    return log, tracer


def test_duplicated_datagram_is_one_net_interval():
    # A duplicated hop is one span, closed by whichever copy lands first;
    # the later copy emits nothing.
    sim = Simulator()
    sim.event_log, tracer = _subscribed(sim)
    nemesis = Nemesis(sim, seed=SeedTree(3))
    nemesis.add_window(
        NemesisWindow(0.0, 10.0, NemesisParams(duplicate_p=1.0)))
    network = Network(sim, seed=SeedTree(3), nemesis=nemesis)
    got = []
    Node(sim, network, "a")
    Node(sim, network, "b").handle(
        "p", lambda payload, src: got.append(sim.now))
    network.send("a", "b", "p", "hello", trace="t1")
    sim.run()
    [hop] = tracer.select("net")
    assert len(got) == 2 and nemesis.duplicated == 1
    assert hop["start"] == 0.0 and hop.time == min(got)
    assert hop.node == "a->b" and hop["trace"] == "t1"
    assert hop.get("cause") is None


def test_interval_instant_and_mark():
    sim = _ClockSim()
    log, tracer = _subscribed(sim)
    sim.now = 3.0
    log.emit("apply", "replica0", start=1.0, instance=7, commands=4)
    log.emit("txn.decide", "s0.replica0", tx="x1", outcome="commit")
    log.emit("paxos.elected", "replica1", round=2)
    log.emit("recovery.ready", "replica1", recovered=True)  # nobody's kind
    apply_, decide = tracer.spans
    assert (apply_["start"], apply_.time) == (1.0, 3.0)
    assert decide.get("start") is None
    [mark] = tracer.marks
    assert mark.time == 3.0
    assert dict(mark.fields) == {"round": 2}
    chrome = tracer.to_chrome()["traceEvents"]
    assert [(e["ph"], e["name"]) for e in chrome if e["ph"] != "M"] == [
        ("X", "apply"), ("i", "txn.decide"), ("i", "paxos.elected")]
    assert chrome[1]["dur"] == 2e6
    records = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    assert [r["type"] for r in records] == ["span", "mark", "mark"]
    assert records[0]["fields"] == {"instance": 7, "commands": 4}


def test_max_spans_cap_counts_drops():
    sim = _ClockSim()
    log, tracer = _subscribed(sim, max_spans=2)
    for _ in range(3):
        log.emit("net", "n", start=0.0, trace=None, port="p")
    assert len(tracer.spans) == 2
    assert tracer.dropped == 1
    # ids are the log's emission numbers, dropped or not
    assert [span.seq for span in tracer.spans] == [0, 1]
    assert log.emitted == 3


def test_unsubscribed_kinds_cost_their_sites_no_call():
    # A run observed for other kinds only: per-message and per-op sites
    # capture no handle at all.
    sim = Simulator()
    sim.event_log = EventLog(sim)
    sim.event_log.subscribe(("node.crash",), lambda event: None)
    assert log_for(sim, "net") is None
    assert Network(sim)._hops is None
    sim.event_log.subscribe(("net",), lambda event: None)
    assert log_for(sim, "net") is sim.event_log
