"""The fluent :class:`Experiment` builder -- one front door for all runs.

A single chainable API::

    from repro.harness import Experiment

    result = (Experiment(replicas=8)
              .load("closed", wips=1900, mix="ordering")
              .faults("crash@240:*,reboot@390:2")
              .nemesis("drop@60-300:p=0.1")
              .observe(tick_s=5.0)
              .check_safety()
              .run())

Scenario presets mirror the paper's evaluation: :meth:`baseline`,
:meth:`one_crash` (Section 5.4), :meth:`two_crashes` (Section 5.5),
:meth:`delayed_recovery` (Section 5.6), plus the extension scenarios
:meth:`sequential_crashes` and :meth:`partition`.  All fault times are
paper-timeline seconds; the configured scale compresses them, exactly as
before.  Every path funnels into the one execution engine
(:func:`repro.harness.experiments._execute`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.faults.faultload import (
    NEMESIS_KINDS,
    ONEWAY_KIND,
    STORAGE_KINDS,
    FaultEvent,
    Faultload,
)
from repro.harness.config import ClusterConfig
from repro.harness.experiments import ExperimentResult, _execute


class Experiment:
    """A configurable, chainable experiment; ``run()`` executes it.

    The constructor accepts any :class:`ClusterConfig` field as a
    keyword (``scale`` may be passed positionally).  Builder methods
    return ``self`` so calls chain; the builder is single-use in spirit
    but stateless at run time -- calling :meth:`run` twice performs two
    identical, independent runs.
    """

    def __init__(self, scale=None, *, config: Optional[ClusterConfig] = None,
                 **config_fields):
        self._base = config if config is not None else ClusterConfig()
        self._overrides = dict(config_fields)
        if scale is not None:
            self._overrides["scale"] = scale
        # (kind, kwargs) resolved to a Faultload at run time
        self._scenario = ("baseline", {})

    @classmethod
    def from_config(cls, config: ClusterConfig) -> "Experiment":
        """Wrap an existing :class:`ClusterConfig`."""
        return cls(config=config)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configure(self, **config_fields) -> "Experiment":
        """Override any :class:`ClusterConfig` fields."""
        self._overrides.update(config_fields)
        return self

    def load(self, mode: str = "closed", *, wips: Optional[float] = None,
             mix: Optional[str] = None, scale=None,
             think_time_s: Optional[float] = None,
             clients: Optional[int] = None,
             population: Optional[int] = None,
             arrival: Optional[str] = None,
             use_navigation: Optional[bool] = None,
             timeout_s: Optional[float] = None,
             retry: Optional[str] = None) -> "Experiment":
        """The single load-configuration entry point.

        Closed loop (the paper's RBE fleet; WIPS couples to WIRT)::

            Experiment().load("closed", wips=1900, mix="shopping")
            Experiment().load("closed", clients=500, think_time_s=1.0)

        Open loop (aggregated arrival processes; population is only an
        id space, so millions of emulated users are cheap)::

            Experiment().load("open", wips=1900, population=1_000_000,
                              mix="browsing")

        ``clients``/``think_time_s``/``use_navigation`` are closed-loop
        knobs; ``population``/``arrival`` are open-loop knobs.  ``wips``,
        ``mix``, ``scale``, ``timeout_s``, and ``retry`` apply to both.

        ``retry`` is a client retry policy in the
        :func:`repro.resilience.parse_retry` grammar, e.g.
        ``"expo:base=0.5,cap=8,attempts=3,budget=10%"`` -- or plain
        ``"immediate"`` for the naive storm-prone client.
        """
        if mode not in ("closed", "open"):
            raise ValueError(
                f"load mode must be 'closed' or 'open', got {mode!r}")
        if mode == "closed":
            if population is not None or arrival is not None:
                raise ValueError(
                    "population/arrival are open-loop knobs; "
                    "use .load('open', ...)")
        else:
            if clients is not None:
                raise ValueError(
                    "clients is a closed-loop knob; open-loop load is "
                    "sized by wips (population only assigns ids)")
            if think_time_s is not None:
                raise ValueError(
                    "think_time_s has no effect on open-loop arrivals; "
                    "set wips instead")
            if use_navigation is not None:
                raise ValueError(
                    "use_navigation is a closed-loop knob; open-loop "
                    "rates always derive from the navigation chain's "
                    "stationary mix")
        overrides = self._overrides
        overrides["load_mode"] = mode
        if wips is not None:
            overrides["offered_wips"] = float(wips)
        if mix is not None:
            overrides["profile"] = mix
        if scale is not None:
            overrides["scale"] = scale
        if think_time_s is not None:
            overrides["think_time_s"] = float(think_time_s)
        if clients is not None:
            overrides["clients"] = int(clients)
        if population is not None:
            overrides["population"] = int(population)
        if arrival is not None:
            overrides["arrival"] = arrival
        if use_navigation is not None:
            overrides["use_navigation"] = bool(use_navigation)
        if timeout_s is not None:
            overrides["rbe_timeout_s"] = float(timeout_s)
        if retry is not None:
            from repro.resilience.retry import parse_retry
            parse_retry(retry)  # validate eagerly, at build time
            overrides["retry_spec"] = retry
        return self

    def defend(self, enabled: bool = True) -> "Experiment":
        """Switch the overload defenses on (:mod:`repro.resilience`):
        deadline propagation from the clients, proxy circuit breakers +
        AIMD concurrency limit + redispatch budget, and server admission
        control (bounded queue, CoDel, deadline shedding).  Off by
        default; an undefended run is bit-for-bit the historical one."""
        self._overrides["defenses"] = bool(enabled)
        return self

    def nemesis(self, spec: str) -> "Experiment":
        """A standing message- or storage-fault schedule (drop/dup/delay/
        oneway windows, torn/corrupt/fsynclie/failslow disk faults)
        applied on top of whatever the scenario injects."""
        allowed = NEMESIS_KINDS + (ONEWAY_KIND,) + STORAGE_KINDS
        for event in Faultload.parse(spec, name="nemesis").events:
            if event.kind not in allowed:
                raise ValueError(
                    f"nemesis() only takes message faults "
                    f"({', '.join(NEMESIS_KINDS)}, {ONEWAY_KIND}) and "
                    f"storage faults ({', '.join(STORAGE_KINDS)}), "
                    f"got {event.kind!r}; put {event.kind!r} in faults()")
        self._overrides["nemesis_spec"] = spec
        return self

    def shards(self, k: int) -> "Experiment":
        """Run ``k`` independent Paxos groups of ``replicas`` replicas
        each.  One cluster class builds every ``k``: ``shards(1)`` (the
        default) *is* the paper's flat deployment; ``k > 1`` partitions
        the store (:mod:`repro.shard`) behind a shard-aware router with
        2PC for cross-shard writes.  Fault targets have one grammar for
        every ``k``: a plain replica index means shard 0, ``g.i``
        (``crash@240:1.2``) names shard ``g``'s replica ``i``, and both
        are range-checked before the run starts."""
        self._overrides["shards"] = int(k)
        return self

    def geo(self, topology=None, *, dcs=None, placement: Optional[str] = None,
            quorum: Optional[str] = None, wan_ms: Optional[float] = None,
            client_dc: Optional[str] = None,
            pinned=None) -> "Experiment":
        """Stretch the deployment across datacenters (:mod:`repro.geo`).

        Either pass a ready :class:`~repro.geo.Topology`, or name the
        datacenters and let the defaults build one (``wan_ms`` overrides
        the default one-way WAN latency)::

            Experiment().geo(dcs=("us-east", "us-west", "eu"),
                             placement="leader-local",
                             quorum="leader-local", wan_ms=40)

        ``placement`` seats the replicas (``spread``, ``leader-local``,
        ``pinned`` + ``pinned=(dc, ...)``); ``quorum`` shapes the Paxos
        quorums (``majority``, ``leader-local``, ``flex:<k>``);
        ``client_dc`` is where the proxy and the emulated browsers live
        (default: the first DC).  Failure-detector timeouts stretch with
        the topology's worst RTT automatically.
        """
        from repro.geo import DEFAULT_WAN, GeoConfig, Topology
        if topology is None:
            if not dcs:
                raise ValueError("geo() needs a Topology or dcs=(...)")
            wan = DEFAULT_WAN if wan_ms is None else replace(
                DEFAULT_WAN, latency_s=float(wan_ms) / 1000.0)
            topology = Topology(tuple(dcs), wan=wan)
        elif dcs is not None or wan_ms is not None:
            raise ValueError("pass a ready Topology or dcs/wan_ms, not both")
        kwargs = {}
        if placement is not None:
            kwargs["placement"] = placement
        if quorum is not None:
            kwargs["quorum"] = quorum
        if client_dc is not None:
            kwargs["client_dc"] = client_dc
        if pinned is not None:
            kwargs["pinned"] = tuple(pinned)
        self._overrides["geo"] = GeoConfig(topology=topology, **kwargs)
        return self

    def observe(self, tick_s: float = 5.0) -> "Experiment":
        """Enable the observability stack (metrics registry, timeline
        sampling every ``tick_s`` paper-seconds, kernel profiling)."""
        self._overrides["observability"] = True
        self._overrides["obs_tick_s"] = tick_s
        return self

    def check_safety(self) -> "Experiment":
        """Record consensus traces and audit them after the run."""
        self._overrides["safety_tracing"] = True
        return self

    def slo(self, spec: str) -> "Experiment":
        """Judge the run against declarative SLOs (:mod:`repro.obs.slo`).

        ``spec`` is a comma-separated objective list, e.g.
        ``"wirt_p99<2s,error_rate<1%"`` (latency thresholds and the
        60s/5s + 600s/60s burn-rate windows are paper-seconds,
        compressed by the scale).  The result gains
        :meth:`~repro.harness.experiments.ExperimentResult.slo_report`
        and burn-rate alerts land in the flight recorder, which this
        implies on.
        """
        from repro.obs.slo import parse_slo
        parse_slo(spec)  # validate eagerly, at build time
        self._overrides["slo_spec"] = spec
        return self

    def record(self, capacity: int = 65536,
               dump: Optional[str] = None) -> "Experiment":
        """Enable the flight recorder (:mod:`repro.obs.recorder`): a
        bounded ring of ``capacity`` structured events (fault
        injections, failovers, elections, recovery milestones, SLO
        alerts) exposed as ``result.flight``.  ``dump`` names a JSONL
        path written automatically when an SLO alert or safety
        violation fires.  The run itself stays bit-for-bit identical
        to an unrecorded run at the same seed."""
        self._overrides["flight_recorder"] = True
        self._overrides["recorder_capacity"] = int(capacity)
        if dump is not None:
            self._overrides["recorder_dump"] = dump
        return self

    def trace(self) -> "Experiment":
        """Enable causal span tracing (:mod:`repro.obs.trace`).

        Every interaction gets a trace id that follows it through proxy,
        server, consensus, disk, and 2PC; the result exposes the raw
        :class:`~repro.obs.trace.SpanTracer` as ``result.spans`` plus
        the :meth:`~repro.harness.experiments.ExperimentResult.critical_path`
        and
        :meth:`~repro.harness.experiments.ExperimentResult.recovery_phases`
        analyzers.  The run itself stays bit-for-bit identical to an
        untraced run at the same seed.
        """
        self._overrides["span_tracing"] = True
        return self

    def keep_cluster(self) -> "Experiment":
        """Keep the live cluster on the result (``result.cluster``) so
        post-run oracles can inspect end-of-run replica state.  Used by
        the fault-space explorer (:mod:`repro.faults.explore`)."""
        self._overrides["keep_cluster"] = True
        return self

    def build_config(self) -> ClusterConfig:
        """The resolved :class:`ClusterConfig` this experiment will run."""
        if not self._overrides:
            return self._base
        return replace(self._base, **self._overrides)

    # ------------------------------------------------------------------
    # scenarios (fault times in paper-timeline seconds)
    # ------------------------------------------------------------------
    def baseline(self) -> "Experiment":
        """Failure-free run (speedup/scaleup building block)."""
        self._scenario = ("baseline", {})
        return self

    def faults(self, spec: str) -> "Experiment":
        """A user-authored faultload (grammar:
        :meth:`repro.faults.Faultload.parse`); replicas named by a
        ``reboot`` event get their watchdog disabled, so the reboot is
        genuinely manual."""
        Faultload.parse(spec)  # validate eagerly, at build time
        self._scenario = ("custom", {"spec": spec})
        return self

    def one_crash(self, replica: Optional[int] = None) -> "Experiment":
        """Section 5.4: one crash at t=270 s, autonomous recovery."""
        self._scenario = ("one_crash", {"replica": replica})
        return self

    def two_crashes(self) -> "Experiment":
        """Section 5.5: concurrent crashes at t=240 s and t=270 s
        (random replicas), both recovered autonomously."""
        self._scenario = ("two_crashes", {})
        return self

    def sequential_crashes(self, gap_s: float = 120.0) -> "Experiment":
        """Extension: two sequential crashes, the second after the first
        replica has long recovered."""
        self._scenario = ("sequential_crashes", {"gap_s": gap_s})
        return self

    def partition(self, replica: int = 2,
                  duration_s: float = 60.0) -> "Experiment":
        """Extension: isolate one replica (it stays up), heal after
        ``duration_s`` paper-seconds."""
        self._scenario = ("partition", {"replica": replica,
                                        "duration_s": duration_s})
        return self

    def retry_storm(self, at_s: float = 240.0, duration_s: float = 30.0,
                    factor: float = 8.0) -> "Experiment":
        """Extension (repro.resilience): a transient ``factor``x slowdown
        of every replica CPU over ``[at_s, at_s + duration_s)``
        paper-seconds.  Under open-loop load near saturation with naive
        client retries this trigger tips the deployment into metastable
        collapse; ``result.metastability()`` renders the verdict."""
        if duration_s <= 0:
            raise ValueError(
                f"retry_storm duration must be positive, got {duration_s}")
        self._scenario = ("retry_storm", {"at_s": float(at_s),
                                          "duration_s": float(duration_s),
                                          "factor": float(factor)})
        return self

    def delayed_recovery(self, first: int = 1,
                         second: int = 2) -> "Experiment":
        """Section 5.6: both replicas crash at t=240 s; one recovers
        autonomously, the other only on a manual reboot at t=390 s."""
        self._scenario = ("delayed_recovery", {"first": first,
                                               "second": second})
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Build the deployment, inject the faults, return the result."""
        config = self.build_config()
        faultload, setup = self._resolve_faultload(config)
        if faultload.geo_events() and config.geo is None:
            kinds = sorted({e.kind for e in faultload.geo_events()})
            raise ValueError(
                f"faultload uses DC-scoped kinds ({', '.join(kinds)}) but "
                f"no geo topology is configured; chain .geo(dcs=(...)) "
                f"or pass --geo")
        return _execute(config, faultload, setup=setup)

    def _resolve_faultload(self, config: ClusterConfig):
        """The scenario's :class:`Faultload` on the compressed timeline,
        plus an optional pre-run cluster setup hook."""
        scale = config.scale
        kind, params = self._scenario
        if kind == "baseline":
            return Faultload("none", ()), None
        if kind == "custom":
            parsed = Faultload.parse(params["spec"])
            scaled = Faultload(parsed.name, tuple(
                replace(event, at=scale.t(event.at),
                        until=(None if event.until is None
                               else scale.t(event.until)))
                for event in parsed.events))
            manual = {event.src_target for event in scaled.events
                      if event.kind == "reboot"}

            def setup(cluster) -> None:
                for target in manual:
                    if target is not None:
                        cluster.disable_watchdog(target)

            return scaled, setup
        if kind == "one_crash":
            return Faultload("one-crash", (
                FaultEvent(scale.t(scale.crash1_at_s + 30.0), "crash",
                           params["replica"]),)), None
        if kind == "two_crashes":
            return Faultload("two-crashes", (
                FaultEvent(scale.t(scale.crash1_at_s), "crash", None),
                FaultEvent(scale.t(scale.crash2_at_s), "crash", None),)), None
        if kind == "sequential_crashes":
            first_at = scale.t(scale.crash1_at_s - 120.0)
            second_at = scale.t(scale.crash1_at_s + params["gap_s"])
            return Faultload("sequential-crashes", (
                FaultEvent(first_at, "crash", None),
                FaultEvent(second_at, "crash", None),)), None
        if kind == "partition":
            start = scale.t(scale.crash1_at_s)
            return Faultload("partition", (
                FaultEvent(start, "partition", params["replica"]),
                FaultEvent(start + scale.t(params["duration_s"]), "heal",
                           params["replica"]),)), None
        if kind == "retry_storm":
            at = params["at_s"]
            return Faultload("retry-storm", (
                FaultEvent(scale.t(at), "retrystorm",
                           until=scale.t(at + params["duration_s"]),
                           factor=params["factor"]),)), None
        if kind == "delayed_recovery":
            second = params["second"]
            faultload = Faultload("delayed-recovery", (
                FaultEvent(scale.t(scale.both_crash_at_s), "crash",
                           params["first"]),
                FaultEvent(scale.t(scale.both_crash_at_s), "crash", second),
                FaultEvent(scale.t(scale.manual_reboot_at_s), "reboot",
                           second),))

            def setup(cluster) -> None:
                cluster.disable_watchdog(second)

            return faultload, setup
        raise ValueError(f"unknown scenario kind: {kind!r}")
