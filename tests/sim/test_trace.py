"""The event log: routing, subscribers, and the instrumented components."""

import pytest

from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
from repro.sim.trace import EventLog, Tracer, log_of


def attach(sim, kinds, max_events=1_000_000):
    """Attach an event log to ``sim`` and a tracer keeping ``kinds``."""
    sim.event_log = EventLog(sim)
    tracer = Tracer(max_events)
    sim.event_log.subscribe(kinds, tracer.take)
    return sim.event_log, tracer


def test_emit_without_tracer_is_noop():
    sim = Simulator()
    assert log_of(sim) is None
    log = EventLog(sim)
    log.emit("anything.kind", "src", x=1)  # no subscriber: must not raise
    assert log.emitted == 0


def test_tracer_records_events_with_time():
    sim = Simulator()
    log, tracer = attach(sim, ["custom.kind"])
    sim.call_after(2.5, lambda: log.emit("custom.kind", "me", detail="hello"))
    sim.run()
    assert len(tracer.events) == 1
    event = tracer.events[0]
    assert event.time == 2.5
    assert event["detail"] == "hello"
    with pytest.raises(KeyError):
        event["missing"]


def test_category_filter():
    sim = Simulator()
    log, tracer = attach(sim, ["keep.k"])
    log.emit("keep.k", "s", k=1)
    log.emit("drop.k", "s", k=2)
    assert tracer.counts() == {"keep.k": 1}
    assert log.emitted == 1  # an event nobody takes is never built


def test_select_by_category_and_source():
    sim = Simulator()
    log, tracer = attach(sim, ["a.x", "b.x"])
    log.emit("a.x", "x", v=1)
    log.emit("a.x", "y", v=2)
    log.emit("b.x", "x", v=3)
    assert len(tracer.select("a.x")) == 2
    assert len(tracer.select("a.x", node="y")) == 1
    assert len(tracer.select(node="x")) == 2
    assert len(tracer.select("a.x", "b.x")) == 3


def test_max_events_bound():
    sim = Simulator()
    log, tracer = attach(sim, ["c.k"], max_events=3)
    for k in range(10):
        log.emit("c.k", "s", k=k)
    assert len(tracer.events) == 3
    assert tracer.dropped == 7


def test_listener_fires_live():
    """Every subscriber of a kind gets the one event as it is emitted."""
    sim = Simulator()
    log, tracer = attach(sim, ["c.k"])
    seen = []
    log.subscribe(["c.k"], seen.append)
    log.emit("c.k", "s", k=1)
    assert len(seen) == 1
    assert seen[0] is tracer.events[0]
    assert seen[0].seq == 0


def test_node_lifecycle_is_traced():
    sim = Simulator()
    _log, tracer = attach(sim, ["node.crash", "node.restart"])
    network = Network(sim, NetworkParams(), seed=SeedTree(0))
    node = Node(sim, network, "n0")
    node.crash()
    node.restart()
    events = [(e.kind, e.node) for e in tracer.events]
    assert events == [("node.crash", "n0"), ("node.restart", "n0")]


def test_full_experiment_emits_traces():
    from repro.harness.cluster import RobustStoreCluster
    from tests.harness.helpers import tiny_config
    config = tiny_config(replicas=3, offered_wips=200.0,
                         flight_recorder=True)
    cluster = RobustStoreCluster(config)
    tracer = Tracer()
    cluster.sim.event_log.subscribe(
        ["node.crash", "node.restart", "recovery.ready", "checkpoint.taken"],
        tracer.take)
    cluster.sim.call_after(5.0, cluster.replica_nodes[2].crash)
    cluster.run_until(config.scale.total_s)
    counts = tracer.counts()
    # crash + watchdog restart
    assert counts.get("node.crash", 0) + counts.get("node.restart", 0) >= 2
    assert counts.get("recovery.ready", 0) >= 1
    assert counts.get("checkpoint.taken", 0) >= 1
    ready = [e for e in tracer.select("recovery.ready") if e["recovered"]]
    assert ready, "the rebooted replica should trace its recovery"
    assert ready[0]["took_s"] > 0
