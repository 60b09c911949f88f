"""Experiment scales and cluster configuration.

The paper's method (Section 5.1): 30 s ramp-up, 9 min measurement, 30 s
ramp-down; crashes at t=240 s and t=270 s; the delayed manual recovery at
t=390 s (those three are spelled in the scenario presets' faultload specs,
``repro.harness.experiment.PRESETS``); populations of 30/50/70 emulated
browsers giving 300/500/700 MB states; 1 s think time.

``ExperimentScale`` compresses that timeline uniformly: dividing every
duration *and every state size* by ``time_div`` preserves all the ratios
that shape the results (crash position within the window, recovery time
relative to the measurement, backlog relative to checkpoint age) while
letting the whole benchmark suite run in minutes of wall-clock time.
``paper_scale()`` runs the original timeline; ``bench_scale()`` is the
default for the pytest-benchmark suite.  Selecting the paper timeline for
benches: set the environment variable ``REPRO_FULL_SCALE=1``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.faults.faultload import Faultload
from repro.geo.placement import GeoConfig, paxos_geo_overrides
from repro.paxos.config import PaxosConfig
from repro.treplica.config import TreplicaConfig
from repro.web.proxy import ProxyParams


@dataclass(frozen=True)
class ExperimentScale:
    """Uniform compression of the paper's experimental timeline."""

    name: str
    time_div: float = 1.0       # divides durations and nominal state sizes
    load_div: float = 1.0       # divides throughput (replica CPUs slowed)
    entity_scale: float = 0.02  # real entity counts (simulation memory)

    # paper timeline (seconds, uncompressed)
    ramp_up_s: float = 30.0
    measure_s: float = 540.0
    ramp_down_s: float = 30.0

    def t(self, seconds: float) -> float:
        """A paper-timeline duration, compressed."""
        return seconds / self.time_div

    @property
    def total_s(self) -> float:
        return self.t(self.ramp_up_s + self.measure_s + self.ramp_down_s)

    @property
    def measure_start(self) -> float:
        return self.t(self.ramp_up_s)

    @property
    def measure_end(self) -> float:
        return self.t(self.ramp_up_s + self.measure_s)


def paper_scale() -> ExperimentScale:
    """The original 10-minute timeline, full load, full state sizes."""
    return ExperimentScale(name="paper", time_div=1.0, load_div=1.0,
                           entity_scale=0.02)


def bench_scale() -> ExperimentScale:
    """5x-compressed timeline and 4x-compressed load for the bench suite.

    Replica CPUs run at 1/4 speed and the offered load shrinks by the
    same factor, so utilization, queueing, and every ratio the paper
    reports (speedups, PV%, relative WIRT growth) are preserved while the
    event count per run drops ~20x.
    """
    return ExperimentScale(name="bench", time_div=5.0, load_div=4.0,
                           entity_scale=0.01)


def tiny_scale() -> ExperimentScale:
    """20x-compressed timeline, 8x-compressed load: a run in ~1-2 s wall.

    Meant for tests and CI artifacts, not for measurements -- at this
    compression the absolute numbers are noisy, but every fault/recovery
    mechanism still exercises end to end.
    """
    return ExperimentScale(name="tiny", time_div=20.0, load_div=8.0,
                           entity_scale=0.005)


def active_scale() -> ExperimentScale:
    """The scale the bench suite should use (honours REPRO_FULL_SCALE)."""
    if os.environ.get("REPRO_FULL_SCALE"):
        return paper_scale()
    return bench_scale()


@dataclass(frozen=True)
class ClusterConfig:
    """One RobustStore deployment (Figure 2 of the paper)."""

    replicas: int = 5
    num_ebs: int = 30            # the paper's state-size knob (30/50/70)
    num_items: int = 10_000
    profile: str = "shopping"
    offered_wips: float = 1900.0  # near 5-replica saturation, like the paper
    think_time_s: float = 1.0
    seed: int = 2009
    enable_fast: bool = True
    # CBMG page navigation for the RBEs instead of direct mix sampling
    # (same stationary mix; see repro.tpcw.navigation).
    use_navigation: bool = False
    scale: ExperimentScale = field(default_factory=bench_scale)
    # The client timeout tracks response times, which live in the load
    # domain (they do not compress with the timeline), so it is NOT scaled.
    rbe_timeout_s: float = 10.0
    # Ablation knobs, applied on top of the defaults: pairs of
    # (field name, value) for PaxosConfig / TreplicaConfig respectively.
    paxos_overrides: tuple = ()
    treplica_overrides: tuple = ()
    # Keep the safety audit: the event-log kinds the consensus safety
    # checker reads (decide/deliver/ack, ...) plus node and nemesis
    # events, so the run can be audited by
    # repro.faults.checker.SafetyChecker.
    safety_tracing: bool = False
    # Observability (repro.obs): attach a MetricsRegistry and kernel
    # profiler to the simulator and sample every instrument into a
    # per-run timeline every ``obs_tick_s`` paper-timeline seconds
    # (compressed by the scale, like every other duration).
    observability: bool = False
    obs_tick_s: float = 5.0
    # Causal span tracing (repro.obs.trace): subscribe a SpanTracer to
    # the event log, so every interaction/message/disk-op/apply emits
    # one interval event; feeds the WIRT critical-path and
    # recovery-phase analyzers.  Off by default and zero-cost when off
    # (one None-check per site).
    span_tracing: bool = False
    # Sharding (repro.shard): number of independent Paxos+Treplica
    # groups the TPC-W key space is range-partitioned over.  1 keeps the
    # paper's single-group deployment and runs the unsharded code path
    # bit-for-bit; k > 1 boots one ReplicaGroup per shard behind a
    # shard-aware router, with two-phase commit for cross-shard writes.
    shards: int = 1
    # Keep the live cluster object on the ExperimentResult (excluded
    # from serialization) so callers -- chiefly the fault-space explorer
    # (repro.faults.explore) -- can inspect end-of-run replica state.
    keep_cluster: bool = False
    # Load generation model (repro.load).  "closed" is the paper's
    # per-client RBE population (one simulated process per emulated
    # browser, #RBEs = WIPS x think time); "open" replaces the RBE
    # processes with one Poisson/deterministic arrival process per TPC-W
    # interaction class, whose rates sum to effective_offered_wips and
    # whose mix matches the profile's CBMG stationary distribution.  Open
    # mode decouples the emulated *population* (customer-id/session
    # space, set via ``population``) from the arrival *rate*, so millions
    # of emulated users cost the same kernel work as thousands.
    load_mode: str = "closed"
    # Open mode: emulated-user population for customer-id/session-slot
    # assignment.  0 derives it from the closed-loop law (num_rbes).
    population: int = 0
    # Open mode: arrival process per class, "poisson" or "deterministic".
    arrival: str = "poisson"
    # Closed mode: exact RBE count override (None keeps the WIPS x think
    # time law).  Set via Experiment.load("closed", clients=N).
    clients: Optional[int] = None
    # Geo-replication (repro.geo): a GeoConfig stretching the deployment
    # across datacenters -- topology (per-link latency matrix), replica
    # placement, and quorum shape.  None keeps the paper's single-switch
    # cluster bit-for-bit (no delay model attached, no Paxos overrides).
    geo: Optional[GeoConfig] = None
    # SLO engine (repro.obs.slo): a declarative objective spec such as
    # "wirt_p99<2s,error_rate<1%" judged in sim time with multi-window
    # burn-rate alerting.  Latency thresholds and alert windows are
    # paper-timeline seconds (compressed by the scale).  Setting a spec
    # implies the flight recorder, so alerts land in the event ring.
    slo_spec: Optional[str] = None
    # Flight recorder (repro.obs.recorder): bounded ring buffer of
    # structured events (fault injections, failovers, elections,
    # recovery milestones, SLO alerts) taken from the event log.
    # Passive: recording never perturbs the run (bit-for-bit identical
    # to an unrecorded run, like span tracing).
    flight_recorder: bool = False
    # Client retry policy (repro.resilience.retry): a parse_retry() spec
    # such as "expo:base=0.5,cap=8,attempts=3,budget=10%" applied to
    # every load source (closed-loop RBEs and open-loop arrivals alike).
    # Backoff delays live in the load domain (they track response times,
    # like rbe_timeout_s) and are NOT timeline-scaled.  None keeps the
    # historical no-retry client bit-for-bit.
    retry_spec: Optional[str] = None
    # Overload defenses (repro.resilience), one switch for the whole
    # stack: clients propagate their deadline, the proxy drops dead work
    # and runs per-backend circuit breakers + an AIMD concurrency limit
    # + a redispatch budget, and every application server runs admission
    # control (bounded queue + CoDel + deadline shedding).  Off keeps
    # every run bit-for-bit identical to a build without the defenses.
    defenses: bool = False

    def __post_init__(self):
        # One rule per field: a deployment that cannot serve is refused
        # here, before a cluster is built, not run to a table of errors.
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.num_ebs < 1:
            raise ValueError(f"num_ebs must be >= 1, got {self.num_ebs}")
        if self.num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {self.num_items}")
        _require_positive("offered_wips", self.offered_wips)
        if not (math.isfinite(self.think_time_s) and self.think_time_s >= 0):
            raise ValueError(f"think_time_s must be a finite number >= 0, "
                             f"got {self.think_time_s!r}")
        _require_positive("rbe_timeout_s", self.rbe_timeout_s)
        _require_positive("obs_tick_s", self.obs_tick_s)
        if self.load_mode not in ("closed", "open"):
            raise ValueError(
                f"load_mode must be 'closed' or 'open', got {self.load_mode!r}")
        if self.arrival not in ("poisson", "deterministic"):
            raise ValueError(
                f"arrival must be 'poisson' or 'deterministic', "
                f"got {self.arrival!r}")
        if self.population < 0:
            raise ValueError(f"population must be >= 0, got {self.population}")
        if self.clients is not None and self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.slo_spec is not None:
            # Fail fast on an unparseable spec, before a run is paid for.
            from repro.obs.slo import parse_slo
            parse_slo(self.slo_spec)
        if self.retry_spec is not None:
            from repro.resilience.retry import parse_retry
            parse_retry(self.retry_spec)
        for cls, overrides in ((PaxosConfig, self.paxos_overrides),
                               (TreplicaConfig, self.treplica_overrides)):
            for name, _value in overrides:
                if name not in cls.__dataclass_fields__:
                    raise ValueError(f"cannot override {name!r}: not a "
                                     f"field of {cls.__name__}")

    def check_faults(self, faultload: Faultload) -> None:
        """Reject fault targets this deployment cannot resolve, before
        the run starts, with a message that names the offending event
        (its times in paper seconds, as written)."""
        geo_events = faultload.geo_events()
        if geo_events and self.geo is None:
            kinds = sorted({event.kind for event in geo_events})
            raise ValueError(
                f"faultload uses DC-scoped kinds ({', '.join(kinds)}) but "
                f"no geo topology is configured; chain .geo(dcs=(...)) "
                f"or pass --geo")
        for event in faultload.events:
            where = f"fault event {event.kind}@{event.at:g}"
            for shard in (event.shard, event.dst_shard):
                if shard is None:
                    continue
                if self.shards <= 1:
                    raise ValueError(
                        f"{where} targets shard {shard}, but this is an "
                        f"unsharded deployment; add .shards(k) / --shards "
                        f"k or drop the shard qualifier")
                if shard >= self.shards:
                    raise ValueError(
                        f"{where} targets shard {shard}, but the "
                        f"deployment only has {self.shards} shards "
                        f"(0..{self.shards - 1})")
            for replica in (event.replica, event.dst):
                if replica is not None and replica >= self.replicas:
                    raise ValueError(
                        f"{where} targets replica {replica}, but each "
                        f"group only has {self.replicas} replicas "
                        f"(0..{self.replicas - 1})")
            for dc in (event.dc, event.to_dc, *(event.peer_dcs or ())):
                if dc is not None:
                    self.geo.topology.require_dc(dc)

    @property
    def recording_enabled(self) -> bool:
        """The flight recorder runs when asked for, or whenever an SLO
        spec needs somewhere to put its alerts."""
        return self.flight_recorder or self.slo_spec is not None

    @property
    def effective_offered_wips(self) -> float:
        """Offered load after the scale's load compression."""
        return self.offered_wips / self.scale.load_div

    @property
    def num_rbes(self) -> int:
        """#RBEs = offered WIPS x think time (Section 3)."""
        if self.clients is not None:
            return self.clients
        return max(1, round(self.effective_offered_wips * self.think_time_s))

    @property
    def effective_population(self) -> int:
        """Open mode: the emulated-user count backing id/session draws."""
        if self.population > 0:
            return self.population
        return self.num_rbes

    def treplica_config(self) -> TreplicaConfig:
        scale = self.scale
        base = TreplicaConfig()
        # The checkpoint period compresses like every duration.
        # Checkpoint/restore CPU rates live in the *time* domain (MB per
        # wall second), so they are pre-divided by load_div to cancel the
        # slowed replica CPUs; recovery time then compresses exactly with
        # time_div, like the paper's timeline.
        base_paxos = PaxosConfig(enable_fast=self.enable_fast)
        if self.geo is not None:
            # WAN-aware failure detection and quorum shape, derived from
            # the topology; explicit paxos_overrides still win below.
            base_paxos = replace(base_paxos, **paxos_geo_overrides(
                self.geo, self.replicas, base_paxos.failure_timeout_s))
        paxos = replace(base_paxos, **dict(self.paxos_overrides))
        return replace(
            TreplicaConfig(
                paxos=paxos,
                checkpoint_interval_s=scale.t(base.checkpoint_interval_s),
                checkpoint_cpu_s_per_mb=(base.checkpoint_cpu_s_per_mb
                                         / scale.load_div),
                restore_cpu_s_per_mb=base.restore_cpu_s_per_mb / scale.load_div,
                log_retain_instances=max(2000, int(24_000 / scale.time_div)),
            ),
            **dict(self.treplica_overrides))

    def proxy_params(self) -> ProxyParams:
        # The proxy's probe cadence (HAProxy inter/timeout) compresses
        # with the timeline so the failover window keeps the same
        # proportion of the measurement interval as in the paper.
        scale = self.scale
        base = ProxyParams()
        probe_timeout_s = scale.t(base.probe_timeout_s)
        if self.geo is not None:
            # WAN link latencies live in the load domain (they do not
            # compress with the timeline), so the probe timeout needs a
            # floor above the slowest healthy round trip or every
            # cross-DC backend looks permanently down.
            probe_timeout_s = max(probe_timeout_s,
                                  2.0 * self.geo.topology.max_rtt_s())
        return replace(base, probe_interval_s=scale.t(base.probe_interval_s),
                       probe_timeout_s=probe_timeout_s,
                       defenses=self.defenses)

    def retry_policy(self):
        """The parsed client RetryPolicy, or None when retries are off."""
        if self.retry_spec is None:
            return None
        from repro.resilience.retry import parse_retry
        return parse_retry(self.retry_spec)

    def admission_params(self):
        """Server AdmissionParams when defenses are on, else None."""
        if not self.defenses:
            return None
        from repro.resilience.admission import AdmissionParams
        return AdmissionParams()


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"{name} must be a positive finite number, got {value!r}")
