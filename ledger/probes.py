"""Layer probes: build one layer alone from its public classes, drive N
operations, time them (source **P** of the per-layer table).

Host numbers are the median of ``BATCHES`` batches, in host micro- or
nanoseconds per operation; names holding ``_sim_`` are simulated time
and repeat exactly.  Each probe records a span; a probe whose layer no
longer offers the class it needs reports ``None`` with the reason
instead of stopping the ledger.
"""

from __future__ import annotations

import random
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from ledger.metrics import PER_LAYER

BATCHES = 5
Metrics = Dict[str, Optional[float]]


def _median_per_op(batch: Callable[[], int], unit: float) -> float:
    """Median over ``BATCHES`` of host time per operation; ``batch()``
    does the work and returns how many operations it did."""
    costs = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        operations = batch()
        costs.append((time.perf_counter() - start) / operations)
    return statistics.median(costs) * unit


# ----------------------------------------------------------------------
def probe_calibration(n: int) -> Metrics:
    """A fixed pure-Python loop, stored beside every host number so that
    baselines taken on different machines can be normalised."""
    def batch() -> int:
        table: Dict[int, int] = {}
        total = 0
        for i in range(n):
            total += i * i % 7
            table[i & 1023] = total
        return 1
    return {"probe.calibration_s": _median_per_op(batch, 1.0)}


def probe_sim_core(n: int) -> Metrics:
    from repro.sim import Simulator

    def nothing() -> None:
        pass

    def timers() -> int:
        sim = Simulator()
        rng = random.Random(1)
        for _ in range(n):
            sim.call_at(rng.random(), nothing)
        sim.run()
        return n

    def zero_delay() -> int:
        sim = Simulator()
        for _ in range(n):
            sim.call_after(0, nothing)
        sim.run()
        return n

    def switches() -> int:
        sim = Simulator()

        def sleeper():
            for _ in range(n):
                yield sim.timeout(0.001)

        sim.spawn(sleeper())
        sim.run()
        return n

    return {
        "probe.sim.core.timer_us": _median_per_op(timers, 1e6),
        "probe.sim.core.zero_delay_us": _median_per_op(zero_delay, 1e6),
        "probe.sim.core.process_switch_us": _median_per_op(switches, 1e6),
    }


def probe_sim_network(n: int) -> Metrics:
    from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator

    def batch() -> int:
        sim = Simulator()
        network = Network(sim, NetworkParams(), seed=SeedTree(1))
        sender = Node(sim, network, "a")
        receiver = Node(sim, network, "b")
        received = []
        receiver.handle("port", lambda payload, src: received.append(payload))
        for i in range(n):
            sender.send("b", "port", i)
        sim.run()
        if len(received) != n:
            raise RuntimeError(f"delivered {len(received)} of {n} messages")
        return n

    return {"probe.sim.network.send_deliver_us": _median_per_op(batch, 1e6)}


def probe_sim_disk(n: int) -> Metrics:
    from repro.sim import Disk, Simulator, WriteAheadLog

    sim_latencies: List[float] = []
    per_flush: List[float] = []

    def batch() -> int:
        sim = Simulator()
        wal = WriteAheadLog(sim, Disk(sim))
        latencies = []

        def writer():
            # One append every simulated millisecond against an ~8 ms
            # fsync: group commit coalesces about eight per flush.
            for i in range(n):
                appended_at = sim.now
                wal.append(i).add_callback(
                    lambda _event, t=appended_at:
                    latencies.append(sim.now - t))
                yield sim.timeout(0.001)

        sim.spawn(writer())
        sim.run()
        if len(latencies) != n:
            raise RuntimeError(f"{len(latencies)} of {n} appends durable")
        sim_latencies[:] = latencies
        per_flush[:] = [wal.appended_count / wal.flush_count]
        return n

    return {
        "probe.sim.disk.wal_append_us": _median_per_op(batch, 1e6),
        "probe.sim.disk.wal_appends_per_flush": per_flush[0],
        "probe.sim.disk.wal_append_sim_ms":
            1e3 * sum(sim_latencies) / len(sim_latencies),
    }


def _paxos_commit(enable_fast: bool, commands: int
                  ) -> Tuple[float, float, float]:
    """Five engines decide ``commands`` commands, fed one every 2 sim-ms
    (as ``benchmarks/test_micro_consensus.py`` does): host seconds per
    command, sim seconds submit -> first delivery, messages per command."""
    from repro.paxos import Command, PaxosConfig, PaxosEngine
    from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator

    sim = Simulator()
    seed = SeedTree(1)
    network = Network(sim, NetworkParams(), seed=seed)
    nodes = [Node(sim, network, f"r{i}") for i in range(5)]
    names = [node.name for node in nodes]
    config = PaxosConfig(enable_fast=enable_fast)
    engines = [PaxosEngine(node, names, i, config, seed)
               for i, node in enumerate(nodes)]
    submitted: Dict[str, float] = {}
    latency: Dict[str, float] = {}

    def consumer(engine):
        while True:
            _instance, fresh = yield engine.delivery.get()
            for command in fresh:
                latency.setdefault(command.uid,
                                   sim.now - submitted[command.uid])

    for node, engine in zip(nodes, engines):
        engine.start()
        node.spawn(consumer(engine))
    sim.run(until=1.0)

    def feeder():
        for k in range(commands):
            uid = f"c{k}"
            submitted[uid] = sim.now
            engines[k % 5].submit(Command(uid, None))
            yield sim.timeout(0.002)

    messages_before = network.messages_sent
    sim.spawn(feeder())
    start = time.perf_counter()
    # Stop once everything is decided, so that idle heartbeats do not
    # dilute the per-command figures.
    while len(latency) < commands and sim.now < 10.0:
        sim.run(until=sim.now + 0.05)
    host_s = time.perf_counter() - start
    if len(latency) != commands:
        raise RuntimeError(f"{len(latency)} of {commands} commands decided")
    return (host_s / commands, sum(latency.values()) / commands,
            (network.messages_sent - messages_before) / commands)


def probe_paxos(n: int) -> Metrics:
    out: Metrics = {}
    for mode, enable_fast in (("classic", False), ("fast", True)):
        runs = [_paxos_commit(enable_fast, n) for _ in range(BATCHES)]
        out[f"probe.paxos.{mode}_commit_us"] = (
            1e6 * statistics.median(run[0] for run in runs))
        out[f"probe.paxos.{mode}_commit_sim_ms"] = 1e3 * runs[0][1]
        if enable_fast:   # the deployment's default mode
            out["probe.paxos.msgs_per_commit"] = runs[0][2]
    return out


def _populated_application():
    from repro.tpcw import BookstoreApplication, PopulationParams
    # bench_scale()'s population: entity_scale 0.01 of 10k items, 30 EBs.
    return BookstoreApplication.populated(
        PopulationParams(entity_scale=0.01, seed=2009))


def probe_treplica(n: int) -> Metrics:
    app = _populated_application()
    blob = app.snapshot()

    def snapshots() -> int:
        for _ in range(n):
            app.snapshot()
        return n

    def restores() -> int:
        for _ in range(n):
            app.restore(blob)
        return n

    return {
        "probe.treplica.snapshot_ms": _median_per_op(snapshots, 1e3),
        "probe.treplica.restore_ms": _median_per_op(restores, 1e3),
        "probe.treplica.snapshot_mb": len(blob) / 1e6,
    }


class _LocalRuntime:
    """What ``TPCWDatabase`` needs of a Treplica runtime, without the
    replication: reads see the application, writes apply at once."""

    def __init__(self, app):
        self.app = app

    def read(self, fn):
        return fn(self.app)

    def execute(self, action):
        return action.apply(self.app)
        yield  # a generator, like the real execute()


def _finish(generator):
    """Run a facade write generator to its return value."""
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def probe_tpcw(n: int) -> Metrics:
    from repro.tpcw import TPCWDatabase

    app = _populated_application()
    db = TPCWDatabase(_LocalRuntime(app), clock=lambda: 0.0,
                      rng=random.Random(1))
    items = db.item_count()
    subjects = sorted({db.get_book(i).i_subject for i in range(1, items + 1)})

    def reads() -> int:
        for k in range(n):
            i_id = 1 + k % items
            db.get_book(i_id)
            db.get_related(i_id)
            db.get_new_products(subjects[k % len(subjects)])
            db.do_subject_search(subjects[k % len(subjects)])
        return 4 * n

    def writes() -> int:
        for k in range(n):
            sc_id = _finish(db.create_empty_cart())
            _finish(db.do_cart(sc_id, 1 + k % items))
        return 2 * n

    return {
        "probe.tpcw.read_interaction_us": _median_per_op(reads, 1e6),
        "probe.tpcw.write_action_us": _median_per_op(writes, 1e6),
    }


def probe_web(n: int) -> Metrics:
    from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator
    from repro.tpcw import Interaction
    from repro.web import ProxyParams, Request, Response, ReverseProxy
    from repro.web.proxy import CLIENT_IN_PORT
    from repro.web.server import HTTP_PORT, PROBE_PORT, PROBE_REPLY_PORT

    def batch() -> int:
        sim = Simulator()
        network = Network(sim, NetworkParams(), seed=SeedTree(1))
        backends = [Node(sim, network, f"b{i}") for i in range(3)]
        for node in backends:
            node.handle(PROBE_PORT, lambda probe_id, src, node=node: node.send(
                src, PROBE_REPLY_PORT, (probe_id, node.name, True)))
            node.handle(HTTP_PORT, lambda request, src, node=node: node.send(
                request.reply_to, request.reply_port,
                Response(request.req_id, ok=True)))
        proxy_node = Node(sim, network, "proxy")
        ReverseProxy(proxy_node, [node.name for node in backends],
                     ProxyParams()).start()
        client = Node(sim, network, "client")
        answered = []
        client.handle("resp", lambda response, src: answered.append(response))
        for k in range(n):
            client.send("proxy", CLIENT_IN_PORT, Request(
                f"q{k}", k, "client", "resp", Interaction.HOME, {},
                sent_at=sim.now))
        sim.run(until=5.0)
        if len(answered) != n or not all(r.ok for r in answered):
            raise RuntimeError(f"{len(answered)} of {n} requests answered")
        return n

    return {"probe.web.dispatch_us": _median_per_op(batch, 1e6)}


def probe_obs(n: int) -> Metrics:
    from repro.obs import FlightRecorder, StreamingHistogram
    from repro.sim import Simulator

    rng = random.Random(1)
    values = [rng.lognormvariate(-2.0, 1.0) for _ in range(n)]

    def observes() -> int:
        histogram = StreamingHistogram("probe")
        for value in values:
            histogram.observe(value)
        return n

    def records() -> int:
        recorder = FlightRecorder(Simulator())
        for k in range(n):
            recorder.record("probe.event", "node", k=k)
        return n

    return {
        "probe.obs.histogram_observe_ns": _median_per_op(observes, 1e9),
        "probe.obs.recorder_record_ns": _median_per_op(records, 1e9),
    }


#: (layer, probe, operations per batch at scale 1.0); the metrics a probe
#: owns are the source-P rows of its layer in :mod:`ledger.metrics`.
PROBES: Tuple[Tuple[str, Callable[[int], Metrics], int], ...] = (
    ("machine", probe_calibration, 200_000),
    ("sim.core", probe_sim_core, 20_000),
    ("sim.network", probe_sim_network, 10_000),
    ("sim.disk", probe_sim_disk, 5_000),
    ("paxos", probe_paxos, 400),
    ("treplica", probe_treplica, 5),
    ("tpcw", probe_tpcw, 2_000),
    ("web", probe_web, 2_000),
    ("obs", probe_obs, 50_000),
)


def owned(layer: str) -> List[str]:
    return [spec.name for spec in PER_LAYER
            if spec.layer == layer and spec.source == "P"]


def run_all(scale: float = 1.0) -> dict:
    """Every probe in turn: ``{"layers", "reasons", "spans"}``.

    ``scale`` multiplies the operation counts (the tests use a tiny one).
    """
    layers: Metrics = {}
    reasons: Dict[str, str] = {}
    spans = []
    for layer, probe, operations in PROBES:
        start = time.monotonic()
        try:
            measured = probe(max(1, int(operations * scale)))
        except Exception as exc:   # outlive a layer's API change
            traceback.print_exc()
            measured = {}
            reasons.update({name: f"{type(exc).__name__}: {exc}"
                            for name in owned(layer)})
        layers.update({name: measured.get(name) for name in owned(layer)})
        spans.append({"name": f"probe:{layer}", "start": start,
                      "end": time.monotonic()})
    return {"layers": layers, "reasons": reasons, "spans": spans}
