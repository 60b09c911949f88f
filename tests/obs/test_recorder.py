"""The flight recorder: ring semantics, determinism, and zero cost."""

import json

import pytest

from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment
from repro.obs.recorder import FlightRecorder
from repro.sim import Network, NetworkParams, Node, SeedTree
from repro.sim.core import Simulator
from repro.sim.trace import EventLog, log_of
from repro.tpcw.workload import Interaction
from repro.web.http import Request, Response
from repro.web.proxy import CLIENT_IN_PORT, MAX_DISPATCH_ATTEMPTS, ReverseProxy
from repro.web.server import HTTP_PORT, PROBE_PORT, PROBE_REPLY_PORT


def test_record_stamps_sim_time_and_sorts_fields():
    sim = Simulator()
    recorder = FlightRecorder(sim)
    sim.run(until=2.5)
    event = recorder.record("fault.inject", "replica1",
                            target=1, fault="crash")
    assert event.time == 2.5
    assert event.fields == (("fault", "crash"), ("target", 1))
    assert event.get("fault") == "crash"
    assert event.get("missing", "x") == "x"
    assert event.to_dict() == {"t": 2.5, "kind": "fault.inject", "seq": 0,
                               "node": "replica1", "fault": "crash",
                               "target": 1}


def test_ring_evicts_oldest_first_at_capacity():
    recorder = FlightRecorder(Simulator(), capacity=3)
    for index in range(5):
        recorder.record("tick", None, n=index)
    assert recorder.recorded == 5
    assert recorder.evicted == 2
    assert len(recorder.events) == 3
    # FIFO eviction: the three youngest remain, in order, and the first
    # retained seq equals the evicted count.
    assert [event.get("n") for event in recorder.events] == [2, 3, 4]
    assert recorder.events[0].seq == recorder.evicted


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(Simulator(), capacity=0)


def test_select_filters_kind_prefix_and_window():
    sim = Simulator()
    recorder = FlightRecorder(sim)
    recorder.record("fault.inject", None, fault="crash")
    sim.run(until=1.0)
    recorder.record("fault.heal", None, fault="crash")
    sim.run(until=2.0)
    recorder.record("proxy.backend_down", "proxy", backend="replica1")
    assert [e.kind for e in recorder.select("fault.heal")] == [
        "fault.heal"]
    assert len(recorder.select("fault.inject", "fault.heal")) == 2
    assert [e.kind for e in recorder.select(start=0.5, end=1.5)] == [
        "fault.heal"]
    assert recorder.counts() == {"fault.inject": 1, "fault.heal": 1,
                                 "proxy.backend_down": 1}


def test_to_jsonl_is_deterministic_and_sorted(tmp_path):
    def build():
        recorder = FlightRecorder(Simulator())
        recorder.record("b.kind", "node", zeta=1, alpha="x")
        recorder.record("a.kind", None)
        return recorder

    first, second = build(), build()
    assert first.to_jsonl() == second.to_jsonl()
    lines = first.to_jsonl().split("\n")
    assert json.loads(lines[0]) == {"t": 0.0, "kind": "b.kind", "seq": 0,
                                    "node": "node", "zeta": 1, "alpha": "x"}
    # keys are serialized sorted, so the text itself is byte-stable
    assert lines[0].index('"alpha"') < lines[0].index('"zeta"')
    path = tmp_path / "ring.jsonl"
    assert first.dump(str(path)) == 2
    assert path.read_text().count("\n") == 2


def test_recorder_of_null_object():
    """Sites hold None when nothing observes; with a log attached, the
    ring takes its own kinds and never the per-command audit kinds."""
    sim = Simulator()
    assert log_of(sim) is None
    sim.event_log = EventLog(sim)
    recorder = FlightRecorder(sim)
    sim.event_log.subscribe(FlightRecorder.KINDS, recorder.take)
    assert log_of(sim) is sim.event_log
    sim.event_log.emit("paxos.elected", "replica1", round=2)
    for kind in ("paxos.decide", "paxos.deliver", "paxos.accept",
                 "treplica.ack"):
        assert kind not in FlightRecorder.KINDS
        sim.event_log.emit(kind, "replica1", instance=1)
    assert [event.kind for event in recorder.events] == ["paxos.elected"]


def test_config_gates_recording():
    scale = tiny_scale()
    assert ClusterConfig(scale=scale).recording_enabled is False
    assert ClusterConfig(scale=scale,
                         flight_recorder=True).recording_enabled is True
    assert ClusterConfig(scale=scale,
                         slo_spec="error_rate<1%").recording_enabled is True


def test_recorded_run_is_bit_for_bit_identical():
    """The acceptance bar: enabling the recorder (and the SLO engine)
    must not perturb the run -- same samples, same recoveries, same
    metric totals at the same seed."""
    def run(instrumented):
        experiment = (Experiment(scale=tiny_scale(), seed=2009)
                      .load("closed", wips=1900.0)
                      .one_crash(replica=1))
        if instrumented:
            experiment.record().slo("wirt_p99<2s,error_rate<1%")
        return experiment.run()

    bare, recorded = run(False), run(True)
    assert bare.collector.samples == recorded.collector.samples
    assert bare.recoveries == recorded.recoveries
    bare_whole, rec_whole = bare.whole_window(), recorded.whole_window()
    assert bare_whole.completed == rec_whole.completed
    assert bare_whole.errors == rec_whole.errors
    assert bare_whole.awips == rec_whole.awips
    assert bare.flight is None and recorded.flight is not None
    assert recorded.flight.recorded > 0


class _RecordedProxyRig:
    """A recorder-instrumented proxy in front of stub backends that
    answer probes and echo requests after a delay."""

    def __init__(self, n_backends=2, delay=0.05):
        self.sim = Simulator()
        self.sim.event_log = EventLog(self.sim)
        self.recorder = FlightRecorder(self.sim)
        self.sim.event_log.subscribe(FlightRecorder.KINDS, self.recorder.take)
        network = Network(self.sim, NetworkParams(), seed=SeedTree(5))
        self.backend_nodes = [Node(self.sim, network, f"b{i}")
                              for i in range(n_backends)]
        for node in self.backend_nodes:
            self._bind_backend(node, delay)
        proxy_node = Node(self.sim, network, "proxy")
        self.proxy = ReverseProxy(proxy_node,
                                  [n.name for n in self.backend_nodes])
        self.proxy.start()
        self.client = Node(self.sim, network, "client")
        self.responses = []
        self.client.handle("resp",
                           lambda payload, src: self.responses.append(payload))

    def _bind_backend(self, node, delay):
        def on_probe(probe_id, src):
            node.send(src, PROBE_REPLY_PORT, (probe_id, node.name, True))

        def on_request(request, src):
            def respond():
                yield node.sim.timeout(delay)
                node.send(src, "proxy-resp", Response(request.req_id, ok=True))
            node.spawn(respond())

        node.handle(PROBE_PORT, on_probe)
        node.handle(HTTP_PORT, on_request)

    def send(self, req_id="q1", client_id=1,
             interaction=Interaction.BUY_CONFIRM):
        request = Request(req_id, client_id, "client", "resp", interaction,
                          {}, sent_at=self.sim.now)
        self.client.send("proxy", CLIENT_IN_PORT, request)


def test_no_backend_reply_records_the_request_context():
    rig = _RecordedProxyRig()
    for node in rig.backend_nodes:
        node.crash()
    rig.send(req_id="q7", client_id=3, interaction=Interaction.HOME)
    rig.sim.run(until=1.0)
    # Every dispatch attempt hit a dead process; the client got the 503
    # and the ring kept the evidence with full request context.
    assert rig.responses and not rig.responses[0].ok
    events = rig.recorder.select("proxy.no_backend")
    assert len(events) == 1
    event = events[0]
    assert event.node == "proxy"
    assert event.get("req") == "q7"
    assert event.get("client") == 3
    assert event.get("interaction") == "home"
    assert event.get("attempt") == MAX_DISPATCH_ATTEMPTS


def test_broken_connection_records_the_request_context():
    rig = _RecordedProxyRig(delay=0.5)
    rig.send(req_id="q9", client_id=1, interaction=Interaction.BUY_CONFIRM)
    rig.sim.run(until=0.1)  # in flight on b1 (hash of client 1 over 2)
    assert rig.proxy._inflight
    backend = next(iter(rig.proxy._inflight.values()))[1]
    dict(zip([n.name for n in rig.backend_nodes],
             rig.backend_nodes))[backend].crash()
    rig.sim.run(until=1.0)
    assert rig.responses and rig.responses[0].error == \
        "connection reset by peer"
    events = rig.recorder.select("proxy.broken_connection")
    assert len(events) == 1
    event = events[0]
    assert event.node == "proxy"
    assert event.get("req") == "q9"
    assert event.get("client") == 1
    assert event.get("interaction") == "buy_confirm"
    assert event.get("backend") == backend


def test_one_crash_run_records_the_failover_story():
    result = (Experiment(scale=tiny_scale(), seed=2009)
              .load("closed", wips=1900.0)
              .record()
              .one_crash(replica=1)
              .run())
    counts = result.flight.counts()
    assert counts["fault.inject"] == 1
    assert counts["watchdog.restart"] >= 1
    assert counts["proxy.backend_down"] >= 1
    assert counts["proxy.backend_up"] >= 1
    assert counts["recovery.ready"] >= 1
    assert counts["checkpoint.taken"] >= 1
    crash = result.flight.select("fault.inject")[0]
    assert crash.get("fault") == "crash"
    assert crash.get("target") == "1"
    assert crash.time == pytest.approx(result.first_crash_at)
