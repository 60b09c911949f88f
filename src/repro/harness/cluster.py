"""Builds the full RobustStore deployment of Figure 2 -- for any shard count.

Three disjoint node sets on one simulated switch:

* ``client0..4`` -- the RBE fleet (load generation only);
* ``replica0..k`` -- Tomcat-equivalent application servers running the
  bookstore over Treplica, writing only to their local disks;
* ``proxy`` -- the probing, hashing reverse proxy (failover).

Plus the out-of-band pieces: one watchdog per replica (auto-restart) and
the recovery-event log the dependability analysis reads.

The replica tier lives in :class:`ReplicaGroup`, one independent
Paxos+Treplica consensus group.  :class:`RobustStoreCluster` builds
``config.shards`` of them; the paper's flat deployment is the k=1 case,
not a second system (Spinnaker's point: a datastore is a set of
key-range cohorts, and one cohort is the degenerate case).  What a
partitioned deployment adds -- ``s{g}.`` node names, shard-scoped
seeds, the 2PC database facade, the shard router, shard-tagged
recoveries and gauges -- is chosen in one place in the constructor and
imported from :mod:`repro.shard` only when ``config.shards > 1``.

This module also owns how a fault target resolves to a node: every
fault verb takes a plain replica index (meaning shard 0) or a
``(shard, replica)`` pair -- what the faultload grammar's
``crash@240:1.2`` produces -- and goes through the one range-checking
:meth:`RobustStoreCluster._resolve`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.faults.checker import SafetyChecker
from repro.faults.metrics import MetricsCollector, NemesisStats
from repro.faults.watchdog import Watchdog
from repro.geo import DegradeWindow, GeoState
from repro.harness.config import ClusterConfig
from repro.load import build_load
from repro.obs import (FlightRecorder, KernelProfiler, MetricsRegistry,
                       SloEngine, SpanTracer, TimelineSampler)
from repro.sim import (
    Nemesis,
    NemesisParams,
    NemesisWindow,
    Network,
    NetworkParams,
    Node,
    SeedTree,
    Simulator,
    StorageFault,
    StorageNemesis,
)
from repro.sim.trace import EventLog, Tracer
from repro.tpcw.app import BookstoreApplication, BookstoreSnapshot
from repro.tpcw.bookstore import BookstoreServlets
from repro.tpcw.database import TPCWDatabase
from repro.tpcw.population import PopulationParams, populate
from repro.tpcw.state import BookstoreState
from repro.tpcw.workload import profile_by_name
from repro.treplica import TreplicaRuntime
from repro.web.proxy import ReverseProxy
from repro.web.server import ApplicationServer

#: The RBE fleet's machines (``client0..4``).
CLIENT_NODES = 5

#: A fault target: plain replica index (meaning shard 0) or
#: ``(shard, replica)``.
Target = Union[int, Tuple[int, int]]


class ReplicaGroup:
    """The replica tier of one consensus group.

    Owns the replica nodes and their software stack (Treplica runtime,
    TPC-W facade, servlets, application server), the per-replica
    watchdogs, and the group's recovery-event log.  Construction only
    creates the nodes; :meth:`boot_all` starts the software and
    :meth:`start_watchdogs` arms the out-of-band restarts, so the caller
    controls the deployment-wide ordering of those phases (which fixes
    the simulator's deterministic event interleaving).
    """

    def __init__(self, sim: Simulator, network: Network,
                 config: ClusterConfig, seed: SeedTree,
                 genesis: BookstoreSnapshot,
                 name_prefix: str = "", shard: Optional[int] = None,
                 database_factory: Optional[Callable] = None,
                 recoveries: Optional[List[Dict[str, float]]] = None):
        self.sim = sim
        self.network = network
        self.config = config
        self.seed = seed
        self.shard = shard
        self._genesis = genesis
        self._database_factory = database_factory or ReplicaGroup._make_database
        self.recoveries = recoveries if recoveries is not None else []
        scale = config.scale
        self.replica_nodes: List[Node] = [
            Node(sim, network, f"{name_prefix}replica{i}",
                 cpu_speed=1.0 / scale.load_div)
            for i in range(config.replicas)]
        self.replica_names = [node.name for node in self.replica_nodes]
        self.runtimes: List[Optional[TreplicaRuntime]] = [None] * config.replicas
        self.servers: List[Optional[ApplicationServer]] = [None] * config.replicas
        self.databases: List[Optional[TPCWDatabase]] = [None] * config.replicas
        self.watchdogs: List[Watchdog] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def boot_all(self) -> None:
        for i, node in enumerate(self.replica_nodes):
            node.boot = self._make_boot(i)
            self._boot_replica(i)

    def start_watchdogs(self) -> None:
        for node in self.replica_nodes:
            watchdog = Watchdog(self.sim, node,
                                time_div=self.config.scale.time_div)
            watchdog.start()
            self.watchdogs.append(watchdog)

    def _make_boot(self, index: int):
        def boot(node: Node) -> None:
            self._boot_replica(index)
        return boot

    def _make_database(self, index: int, node: Node,
                       runtime: TreplicaRuntime) -> TPCWDatabase:
        return TPCWDatabase(
            runtime, clock=lambda: self.sim.now,
            rng=self.seed.fork_random(f"db-{index}-{node.incarnation}"))

    def _boot_replica(self, index: int) -> None:
        node = self.replica_nodes[index]
        # Boot is a restore of checkpoint zero (genesis, empty journal)
        # through the path a local load or remote install takes, which
        # makes the shared genesis snapshot this incarnation's first base
        # (its checkpoints encode nothing until the rebase rule fires)
        # and the genesis rows of the insert-only tables its own.
        runtime = TreplicaRuntime(node, self.replica_names, index,
                                  BookstoreApplication(BookstoreState()),
                                  config=self.config.treplica_config(),
                                  seed=self.seed)
        runtime.restore_state((self._genesis, ()))
        db = self._database_factory(self, index, node, runtime)
        servlets = BookstoreServlets(
            db, self.seed.fork_random(f"servlets-{index}-{node.incarnation}"))
        # Each incarnation gets a fresh admission controller (when the
        # overload defenses are on): in-flight accounting must not
        # survive a crash that already dropped the work it counted.
        admission = None
        admission_params = self.config.admission_params()
        if admission_params is not None:
            from repro.resilience.admission import AdmissionController
            admission = AdmissionController(lambda: self.sim.now,
                                            admission_params)
        server = ApplicationServer(node, runtime, servlets,
                                   admission=admission)
        self.runtimes[index] = runtime
        self.servers[index] = server
        self.databases[index] = db
        runtime.start()
        server.start()
        if node.incarnation > 0:
            event = {"replica": index, "node": node.name,
                     "crashed_at": node.last_crash_at,
                     "rebooted_at": self.sim.now,
                     "ready_at": None}
            if self.shard is not None:
                event["shard"] = self.shard
            self.recoveries.append(event)
            runtime.ready_event.add_callback(
                lambda _e, ev=event: ev.__setitem__("ready_at", self.sim.now))

    # ------------------------------------------------------------------
    # fault-injection interface (group-local indexes)
    # ------------------------------------------------------------------
    def target(self, index: int) -> Target:
        """The deployment-wide fault target of replica ``index``: the
        plain index for the untagged single group, else ``(shard,
        index)``."""
        return index if self.shard is None else (self.shard, index)

    def live_replicas(self) -> List[int]:
        return [i for i, node in enumerate(self.replica_nodes) if node.alive]

    def crash_replica(self, index: int) -> None:
        self.replica_nodes[index].crash()
        self.runtimes[index] = None
        self.servers[index] = None
        self.databases[index] = None

    def reboot_replica(self, index: int) -> None:
        if not self.replica_nodes[index].alive:
            self.replica_nodes[index].reboot()

    def max_journal_actions(self) -> float:
        """Longest checkpoint journal (actions applied on top of the
        current base snapshot) across live replicas."""
        return float(max((runtime.journal_actions
                          for runtime in self.runtimes
                          if runtime is not None), default=0))

    def max_dedup_uids(self) -> float:
        """Largest exactly-once uid memory across live replicas: the one
        learner structure that grows with the number of commands."""
        return float(max((runtime.engine.dedup_uids
                          for runtime in self.runtimes
                          if runtime is not None), default=0))

    def max_apply_backlog(self) -> float:
        """Deepest decided-but-unapplied backlog across live replicas."""
        depth = 0
        for runtime in self.runtimes:
            if runtime is not None:
                depth = max(depth,
                            runtime.engine.watermark - runtime.applied_up_to)
        return float(depth)


class RobustStoreCluster:
    """One complete deployment, ready for an experiment run.

    The store is populated once and kept as :attr:`genesis`, one
    :class:`BookstoreSnapshot`: checkpoint zero of every replica.  A
    replica boots -- at deployment and after every crash -- by restoring
    it with an empty journal through ``TreplicaRuntime.restore_state``,
    the same path a local checkpoint load and a remote install take, so
    the genesis snapshot is shared by all replicas as their first
    checkpoint base and is never re-encoded, and the rows of the
    insert-only tables (``BookstoreState.INSERT_ONLY``) are held once
    per deployment: each replica gets its own dict of them, not its own
    copy of a row.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        self.seed = SeedTree(config.seed)
        # Observability must be attached before any component is built:
        # engines/runtimes/proxies register their counts and capture
        # their histograms at construction time via registry_of(sim).
        self.metrics: Optional[MetricsRegistry] = None
        self.profiler: Optional[KernelProfiler] = None
        self.sampler: Optional[TimelineSampler] = None
        if config.observability:
            self.metrics = MetricsRegistry()
            self.sim.metrics = self.metrics
            self.profiler = KernelProfiler()
            self.sim.profiler = self.profiler
            self.sampler = TimelineSampler(
                self.sim, self.metrics,
                config.scale.t(config.obs_tick_s))
        # The event log (repro.sim.trace), attached before any component
        # for the same reason: sites capture log_of(sim) -- or, per
        # message and per op, log_for(sim, kind) -- when built.  Its
        # subscribers -- the safety audit, the span tracer, the flight
        # ring -- each take the kinds their class declares.  Subscribing
        # is passive (no events, no randomness), so runs are
        # bit-for-bit identical with any of them on or off.
        self.audit: Optional[Tracer] = None
        self.span_tracer: Optional[SpanTracer] = None
        self.recorder: Optional[FlightRecorder] = None
        if (config.safety_tracing or config.span_tracing
                or config.recording_enabled):
            log = self.sim.event_log = EventLog(self.sim)
            if config.safety_tracing:
                self.audit = Tracer()
                log.subscribe(SafetyChecker.AUDIT_KINDS, self.audit.take)
            if config.span_tracing:
                self.span_tracer = SpanTracer()
                log.subscribe(SpanTracer.KINDS, self.span_tracer.take)
                log.subscribe(SpanTracer.MILESTONES,
                              self.span_tracer.marks.append)
            if config.recording_enabled:
                self.recorder = FlightRecorder(self.sim)
                log.subscribe(FlightRecorder.KINDS, self.recorder.take)
        self.network = Network(self.sim, NetworkParams(), seed=self.seed,
                               nemesis=Nemesis(self.sim, seed=self.seed))
        # Created before the run by the first storage fault's prepare
        # verb (watch_disks) and shared by every group, so the audit
        # counters are deployment-wide; with none configured, no disk
        # ever consults a nemesis and runs are bit-for-bit identical to
        # a storage-fault-free build.
        self.storage_nemesis: Optional[StorageNemesis] = None
        # The factors of the replica CPU slowdowns in force (retrystorm).
        self._slowdowns: List[float] = []
        self.profile = profile_by_name(config.profile)
        self.collector = MetricsCollector()
        if self.metrics is not None:
            self.metrics.register_counts(self.collector.stats, {
                "web.interactions_ok": "interactions_ok",
                "web.interactions_error": "interactions_error"})

        scale = config.scale
        self.population_params = PopulationParams(
            num_items=config.num_items, num_ebs=config.num_ebs,
            entity_scale=scale.entity_scale, seed=config.seed)
        # One deterministic population, kept as the application snapshot
        # every replica boots from -- the genesis checkpoint; the nominal
        # size is additionally compressed by the timeline factor so that
        # recovery fits the compressed window with unchanged ratios.
        self.genesis: BookstoreSnapshot = BookstoreApplication(
            populate(self.population_params),
            self.population_params.size_multiplier / scale.time_div
        ).snapshot()

        # --- the one k=1 / k>1 branch ----------------------------------
        # Everything that tells the paper's flat deployment from a
        # partitioned one is chosen here.  Below this block "one group"
        # is just k=1; per-group behaviour keys off ReplicaGroup.shard
        # (None = the single untagged group).
        group_names: List[List[str]] = []  # filled once the groups exist
        if config.shards == 1:
            group_kwargs = [dict(seed=self.seed)]

            def make_proxy() -> ReverseProxy:
                return ReverseProxy(self.proxy_node, group_names[0],
                                    config.proxy_params())
        else:
            # Imported lazily: the flat deployment never loads the
            # shard package.
            from repro.shard import Partitioner, ShardRouter
            from repro.shard.database import sharded_database_factory
            partitioner = Partitioner.for_population(config.shards,
                                                     self.population_params)
            factory = sharded_database_factory(partitioner, group_names)
            group_kwargs = [dict(seed=self.seed.fork(f"shard{g}"),
                                 name_prefix=f"s{g}.", shard=g,
                                 database_factory=factory)
                            for g in range(config.shards)]

            def make_proxy() -> ReverseProxy:
                return ShardRouter(self.proxy_node, group_names,
                                   partitioner, config.proxy_params())

        # --- nodes: every group's replicas, then proxy, then clients ----
        self.recoveries: List[Dict[str, float]] = []  # one shared log
        self.groups: List[ReplicaGroup] = [
            ReplicaGroup(self.sim, self.network, config,
                         genesis=self.genesis,
                         recoveries=self.recoveries, **kwargs)
            for kwargs in group_kwargs]
        group_names.extend(group.replica_names for group in self.groups)
        self.proxy_node = Node(self.sim, self.network, "proxy",
                               cpu_speed=1.0 / scale.load_div)
        self.client_nodes: List[Node] = [
            Node(self.sim, self.network, f"client{i}")
            for i in range(CLIENT_NODES)]

        # --- replica software (all groups exist: 2PC coordinators can
        # see every group's member list) --------------------------------
        for group in self.groups:
            group.boot_all()

        # --- proxy / shard router ----------------------------------------
        self.proxy = make_proxy()
        self.proxy.start()

        # --- geo-replication (repro.geo) --------------------------------
        # Node-to-DC assignment + the per-link delay model, attached
        # before the simulation's first event; the proxy starts
        # attributing completed interactions to the serving replica's DC.
        # Every group gets the same placement: shard g's replica i sits
        # in the same DC as shard h's replica i, so one DC outage hits
        # the same quorum slot everywhere.
        self.geo_state: Optional[GeoState] = None
        if config.geo is not None:
            self.geo_state = GeoState(
                config.geo,
                [[(group.target(i), name)
                  for i, name in enumerate(group.replica_names)]
                 for group in self.groups],
                [self.proxy_node.name]
                + [node.name for node in self.client_nodes])
            self.network.geo = self.geo_state.model
            self.proxy.set_backend_dcs(self.geo_state.replica_dc_of)
            if self.sim.event_log is not None:
                # One boot-time event carrying the replica->DC map, so
                # post-mortems can attribute incidents to datacenters.
                self.sim.event_log.emit("geo.placement", None,
                                        **self.geo_state.replica_dc_of)

        # --- watchdogs (per group) -------------------------------------
        for group in self.groups:
            group.start_watchdogs()

        # --- load tier (closed-loop RBE fleet or open-loop arrivals) ----
        self.load_drivers = build_load(
            self.client_nodes, self.proxy_node.name, self.profile,
            self.collector, self.seed, config)

        # --- observability: cluster-level gauges + the sampling loop ---
        if self.metrics is not None:
            self._register_gauges()
            self.sampler.start()

        # --- SLO engine (repro.obs.slo) ---------------------------------
        # Judged in sim time off the collector's interaction stream;
        # like the sampler, the engine only schedules its own timer, so
        # the rest of the run is unperturbed.
        self.slo_engine: Optional[SloEngine] = None
        if config.slo_spec is not None:
            self.slo_engine = SloEngine(
                self.sim, self.collector, config.slo_spec,
                scale=config.scale, warmup_until=config.scale.measure_start)
            self.slo_engine.start()

    # ------------------------------------------------------------------
    # group-major views over the replica tier
    # ------------------------------------------------------------------
    def _view(self, attr: str) -> list:
        """``attr`` of every group, concatenated group-major.  With one
        group it is that group's own (live, mutated-in-place) list."""
        if len(self.groups) == 1:
            return getattr(self.groups[0], attr)
        return [item for group in self.groups
                for item in getattr(group, attr)]

    replica_nodes = property(lambda self: self._view("replica_nodes"))
    replica_names = property(lambda self: self._view("replica_names"))
    runtimes = property(lambda self: self._view("runtimes"))
    servers = property(lambda self: self._view("servers"))
    watchdogs = property(lambda self: self._view("watchdogs"))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        """Point-in-time readings the sampler charts every tick."""
        obs = self.metrics
        network = self.network
        obs.gauge("sim.net_inflight_messages",
                  lambda: network.inflight_messages)
        obs.gauge("sim.net_inflight_mb", lambda: network.inflight_mb)
        nemesis = network.nemesis
        if nemesis is not None:
            obs.gauge("sim.nemesis_dropped", lambda: nemesis.dropped)
            obs.gauge("sim.nemesis_duplicated", lambda: nemesis.duplicated)
            obs.gauge("sim.nemesis_delayed", lambda: nemesis.delayed)
        replica_nodes = self.replica_nodes
        obs.gauge("sim.disk_queue_depth",
                  lambda: sum(node.disk.queue_length
                              for node in replica_nodes))
        obs.gauge("paxos.live_replicas",
                  lambda: float(len(self.live_replicas())))
        obs.gauge("treplica.queue_depth",
                  lambda: max(group.max_apply_backlog()
                              for group in self.groups))
        obs.gauge("treplica.journal_actions",
                  lambda: max(group.max_journal_actions()
                              for group in self.groups))
        obs.gauge("paxos.delivered_uids",
                  lambda: max(group.max_dedup_uids()
                              for group in self.groups))
        for group in self.groups:
            if group.shard is not None:
                obs.gauge(f"shard.s{group.shard}.live_replicas",
                          lambda grp=group: float(len(grp.live_replicas())))
                obs.gauge(f"shard.s{group.shard}.queue_depth",
                          group.max_apply_backlog)
        if self.geo_state is not None:
            model = self.geo_state.model
            obs.gauge("sim.net_wan_messages",
                      lambda: float(model.wan_messages))
            obs.gauge("sim.net_wan_mb", lambda: model.wan_mb)
            for dc in self.geo_state.geo.topology.dcs:
                housed = [self._node(target)
                          for target in self.geo_state.replica_targets(dc)]
                obs.gauge(f"geo.{dc}.live_replicas",
                          lambda nodes=housed: float(sum(
                              1 for node in nodes if node.alive)))

    @property
    def timeline(self):
        """The run's sampled timeline (None unless observability is on)."""
        return self.sampler.timeline if self.sampler is not None else None

    # ------------------------------------------------------------------
    # fault-injection interface (every verb takes a Target)
    # ------------------------------------------------------------------
    def _resolve(self, target: Target) -> Tuple[ReplicaGroup, int]:
        """The one place a fault target becomes ``(group, index)``."""
        shard, index = target if isinstance(target, tuple) else (0, target)
        if not 0 <= shard < len(self.groups):
            raise ValueError(
                f"no such shard: {shard} (the deployment has shards "
                f"0..{len(self.groups) - 1})")
        group = self.groups[shard]
        if not 0 <= index < len(group.replica_nodes):
            raise ValueError(
                f"shard {shard} has replicas 0.."
                f"{len(group.replica_nodes) - 1}, no replica {index}")
        return group, index

    def _node(self, target: Target) -> Node:
        group, index = self._resolve(target)
        return group.replica_nodes[index]

    @staticmethod
    def target_label(target: Target) -> str:
        """Grammar-shaped label of a target: ``2`` or ``"1.2"``."""
        if isinstance(target, tuple):
            return ".".join(str(part) for part in target)
        return str(target)

    def live_replicas(self, shard: Optional[int] = None) -> List[Target]:
        """Targets of the live replicas (of one shard, when given)."""
        return [group.target(i) for group in self.groups
                if shard is None or group.shard == shard
                for i in group.live_replicas()]

    def crash_replica(self, target: Target) -> None:
        group, index = self._resolve(target)
        group.crash_replica(index)

    def reboot_replica(self, target: Target) -> None:
        group, index = self._resolve(target)
        group.reboot_replica(index)

    def _isolation(self, target: Target) -> List[Tuple[str, str]]:
        """Both directions between a replica and each of its group peers."""
        group, index = self._resolve(target)
        isolated = group.replica_names[index]
        return [pair for other in group.replica_names if other != isolated
                for pair in ((isolated, other), (other, isolated))]

    def partition_replica(self, target: Target) -> None:
        """Extension fault: cut the replica off from its group peers (it
        stays up and keeps answering the proxy, but cannot reach a
        quorum) until :meth:`heal_replica` mends this cut."""
        self.network.cut(self._isolation(target))

    def heal_replica(self, target: Target) -> None:
        self.network.mend(self._isolation(target))

    def disable_watchdog(self, target: Target) -> None:
        """A reboot's prepare: a hold on the replica's watchdog that is
        never released, so only the manual reboot brings it back."""
        self._watchdog(target).holds += 1

    def _watchdog(self, target: Target) -> Watchdog:
        group, index = self._resolve(target)
        return group.watchdogs[index]

    def begin_slowdown(self, factor: float) -> None:
        """Retrystorm trigger, a transient capacity loss: every replica
        CPU of every group runs ``factor``x slower until
        :meth:`end_slowdown` of the same factor; overlapping slowdowns
        multiply.  A ServiceStation reads its ``speed`` at serve time,
        so the change applies to every job served from now on (queued
        work included), and a replica restarted meanwhile boots slowed."""
        self._slowdowns.append(factor)
        self._set_cpu_speed()

    def end_slowdown(self, factor: float) -> None:
        """One slowdown heals; full CPU speed returns with the last one.
        Whether goodput follows is the metastability question."""
        self._slowdowns.remove(factor)
        self._set_cpu_speed()

    def _set_cpu_speed(self) -> None:
        speed = 1.0 / self.config.scale.load_div / math.prod(self._slowdowns)
        for node in self.replica_nodes:
            node.cpu_speed = node.cpu.speed = speed

    def block_oneway(self, src: Target, dst: Target) -> None:
        """Asymmetric cut: replica ``src`` can no longer reach ``dst``
        (the reverse direction keeps working)."""
        self.network.cut([(self._node(src).name, self._node(dst).name)])

    def unblock_oneway(self, src: Target, dst: Target) -> None:
        self.network.mend([(self._node(src).name, self._node(dst).name)])

    def _message_window(self, param: str, pair: Tuple[Target, ...],
                        p: float, **options) -> NemesisWindow:
        """The nemesis window of one message fault: ``p`` sets the
        NemesisParams field ``param``; no ``pair`` means all traffic."""
        pairs = None
        if pair:
            src, dst = pair
            pairs = frozenset({(self._node(src).name, self._node(dst).name)})
        return NemesisWindow(NemesisParams(**{param: p}, **options), pairs)

    def open_message_window(self, param: str, *pair: Target,
                            **options) -> None:
        self.network.nemesis.add_window(
            self._message_window(param, pair, **options))

    def close_message_window(self, param: str, *pair: Target,
                             **options) -> None:
        self.network.nemesis.remove_window(
            self._message_window(param, pair, **options))

    def watch_disks(self, target: Target) -> None:
        """Put every replica disk under the deployment's one storage
        nemesis, before the run starts, ahead of a storage fault on
        ``target``'s disk: the repair counters and the acceptor-vote
        audit trail then cover the whole run and deployment."""
        if self.storage_nemesis is not None:
            return
        self.storage_nemesis = StorageNemesis(self.sim, seed=self.seed)
        for node in self.replica_nodes:
            self.storage_nemesis.attach(node.disk)
        if self.metrics is not None:
            self.metrics.register_counts(
                self.storage_nemesis.counters,
                {f"storage.{key}": key
                 for key in StorageNemesis.REPAIR_COUNTS})
        # The engine's accept audit trail (and nothing else) keys off
        # this attribute; see PaxosEngine._vote.
        self.sim.storage_faults = self.storage_nemesis

    def open_storage_window(self, kind: str, target: Target,
                            **options) -> None:
        self.storage_nemesis.add_window(
            StorageFault(kind, self._node(target).disk.name, **options))

    def close_storage_window(self, kind: str, target: Target,
                             **options) -> None:
        self.storage_nemesis.remove_window(
            StorageFault(kind, self._node(target).disk.name, **options))

    def corrupt_disk(self, target: Target) -> None:
        self.storage_nemesis.corrupt(self._node(target).disk.name)

    # ------------------------------------------------------------------
    # DC-scoped faults (geo runs only)
    # ------------------------------------------------------------------
    def _geo(self) -> GeoState:
        if self.geo_state is None:
            raise RuntimeError(
                "DC-scoped faults need a geo topology; configure one via "
                "Experiment.geo(...) or the CLI --geo option")
        return self.geo_state

    def fail_dc(self, dc: str) -> int:
        """Full DC outage across every group: crash each replica housed
        in ``dc``, its watchdog held so nothing restarts while the power
        is out.  Returns the number of replicas actually taken down."""
        crashed = 0
        for target in self._geo().replica_targets(dc):
            self._watchdog(target).holds += 1
            if self._node(target).alive:
                self.crash_replica(target)
                crashed += 1
        return crashed

    def restore_dc(self, dc: str) -> None:
        """Power restored: release the outage's hold on the DC's
        watchdogs, which revive the crashed servers on their own
        (autonomous recovery) unless another fault still holds them."""
        for target in self._geo().replica_targets(dc):
            self._watchdog(target).holds -= 1

    def wan_partition(self, dc: str, peer_dcs) -> None:
        """Sever every node pair between ``dc`` and ``peer_dcs`` (both
        directions -- the WAN path is down, not one router queue)."""
        self.network.cut(self._geo().cut_pairs(dc, peer_dcs))

    def heal_wan_partition(self, dc: str, peer_dcs) -> None:
        self.network.mend(self._geo().cut_pairs(dc, peer_dcs))

    def degrade_wan(self, dc: str, to_dc: str, **options) -> None:
        """Asymmetric WAN slowdown of the directed ``dc -> to_dc`` link."""
        self._geo().model.add_degrade(DegradeWindow(dc, to_dc, **options))

    def restore_wan(self, dc: str, to_dc: str, **options) -> None:
        self._geo().model.remove_degrade(DegradeWindow(dc, to_dc, **options))

    # ------------------------------------------------------------------
    # run auditing
    # ------------------------------------------------------------------
    def nemesis_stats(self) -> NemesisStats:
        return NemesisStats.from_network(self.network)

    def storage_stats(self) -> Optional[Dict[str, int]]:
        """Injection counters (None when no storage fault was configured)."""
        if self.storage_nemesis is None:
            return None
        return dict(self.storage_nemesis.counters)

    def breaker_trips(self) -> int:
        """Watchdogs (across every group) that gave up on a
        crash-looping replica.

        Each trip means a human would have to intervene, so the harness
        counts it against autonomy alongside manual reboots.
        """
        return sum(1 for watchdog in self.watchdogs if watchdog.tripped)

    def safety_checker(self) -> SafetyChecker:
        if self.audit is None:
            raise RuntimeError(
                "safety auditing needs ClusterConfig(safety_tracing=True)")
        return SafetyChecker(self.audit)

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)
        self._finish_observation()

    def run_until(self, when: float) -> None:
        self.sim.run(until=when)
        self._finish_observation()

    def _finish_observation(self) -> None:
        """Close out sim-time observers at the stop instant.

        The sampler only fires on tick boundaries, so without this the
        trailing partial tick (the last WIPS bucket, final counter
        values) was silently lost whenever the run length was not a
        tick multiple; the SLO engine likewise judges any samples that
        completed after its last tick.  Both are no-ops when a tick
        landed exactly here.
        """
        if self.sampler is not None:
            self.sampler.flush()
        if self.slo_engine is not None:
            self.slo_engine.finalize(self.sim.now)
