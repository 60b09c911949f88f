"""Causal span tracing: parity, critical path, recovery forensics.

The two load-bearing invariants from the tracer's contract:

* a traced run is **bit-for-bit identical** to an untraced run at the
  same seed (recording is appends only -- no events, no RNG);
* the analyzers are **exact decompositions**: critical-path buckets sum
  to each interaction's measured WIRT, and the five recovery phases
  partition ``[crashed_at, ready_at]``.
"""

import json

import pytest

from repro.faults.faultload import Faultload
from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment
from repro.harness.experiments import MissingTraceError, _execute
from repro.obs.trace import (
    BUCKETS,
    RECOVERY_PHASES,
    SpanTracer,
    critical_path,
    recovery_phases,
)
from repro.sim.trace import EventLog

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
    # captured via the setup hook (the shard parity test's technique).
    traces = []

    def run(config):
        captured = {}

        def setup(cluster):
            captured["audit"] = cluster.audit

        _execute(config, Faultload("none", ()), setup=setup)
        traces.append([(e.time, e.kind, e.node, e.fields)
                       for e in captured["audit"].events])

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
    class _FakeSim:
        now = 0.0

    report = critical_path(SpanTracer(_FakeSim()))
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
    class _FakeSim:
        now = 0.0

    tracer = SpanTracer(_FakeSim())  # no marks recorded at all
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
    causes = [span.fields.get("cause")
              for span in result.spans.select(kind="net")]
    assert "dropped" in causes


def test_partition_annotates_net_spans():
    result = (_experiment().partition(replica=2, duration_s=60.0)
              .trace().run())
    causes = [span.fields.get("cause")
              for span in result.spans.select(kind="net")]
    assert "partition" in causes


def test_sharded_run_links_2pc_spans():
    result = (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=11)
              .load("closed", wips=400.0)
              .shards(2).baseline().trace().run())
    tracer = result.spans
    prepares = tracer.select(kind="txn.prepare")
    participants = tracer.select(kind="txn.participant")
    decides = tracer.select(kind="txn.decide")
    assert prepares and participants and decides
    # coordinator spans carry the interaction's trace id; participant
    # spans on the remote shard link back through the transaction id
    tx_ids = {span.fields["tx"] for span in prepares}
    assert all(span.trace is not None for span in prepares)
    assert any(span.fields["tx"] in tx_ids for span in participants)
    assert {span.fields["tx"] for span in decides} == tx_ids
    # per-group streams are selectable by node prefix
    assert tracer.select(node_prefix="s0.")
    assert tracer.select(node_prefix="s1.")
    assert not tracer.select(node_prefix="s9.")


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


def test_finish_is_idempotent_first_close_wins():
    sim = _ClockSim()
    tracer = SpanTracer(sim)
    span = tracer.begin("net", "a->b", trace="t1")
    sim.now = 1.0
    tracer.finish(span, cause=None)
    sim.now = 5.0
    tracer.finish(span, cause="late-duplicate")
    assert span.end == 1.0
    assert "cause" not in span.fields or span.fields["cause"] is None


def test_complete_instant_and_mark():
    sim = _ClockSim()
    tracer = SpanTracer(sim)
    sim.now = 3.0
    span = tracer.complete("apply", "replica0", start=1.0, commands=4)
    assert (span.start, span.end) == (1.0, 3.0)
    dot = tracer.instant("net", "a->b", cause="dropped")
    assert dot.duration == 0.0
    log = EventLog(sim)
    log.subscribe(SpanTracer.MILESTONES, tracer.marks.append)
    log.emit("paxos.elected", "replica1", round=2)
    log.emit("recovery.ready", "replica1", recovered=True)  # not a milestone
    [mark] = tracer.marks
    assert mark.time == 3.0
    assert dict(mark.fields) == {"round": 2}


def test_max_spans_cap_counts_drops():
    tracer = SpanTracer(_ClockSim(), max_spans=2)
    kept_a = tracer.begin("net", "n")
    kept_b = tracer.begin("net", "n")
    overflow = tracer.begin("net", "n")
    assert tracer.spans == [kept_a, kept_b]
    assert tracer.dropped == 1
    assert overflow.span_id == 2  # ids keep advancing deterministically
