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
:meth:`sequential_crashes`, :meth:`partition` and :meth:`retry_storm`.
Each is one row of :data:`PRESETS`: a faultload-grammar spec in
paper-timeline seconds, parsed like any :meth:`Experiment.faults` spec,
checked against the deployment by ``build_config()`` and compressed by
the configured scale.  Every path funnels into the one execution engine
(:func:`repro.harness.experiments._execute`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, NamedTuple, Optional, Tuple

from repro.faults.faultload import FaultEvent, Faultload
from repro.harness.config import ClusterConfig
from repro.harness.experiments import ExperimentResult, _execute


class Preset(NamedTuple):
    """One scenario preset: its ``repro run`` name (``None``: builder
    only), the name of the faultload it injects, and that faultload as a
    grammar spec in paper-timeline seconds whose ``{fields}`` are the
    preset method's arguments."""

    cli: Optional[str]
    faultload: str
    spec: str


#: Experiment method -> preset.  Section 5's timeline: crashes at
#: t=240 s and t=270 s, the delayed manual reboot at t=390 s; the
#: sequential-crashes extension crashes 120 s before and after t=240 s.
PRESETS: Dict[str, Preset] = {
    "baseline": Preset("baseline", "none", ""),
    "one_crash": Preset("one_crash", "one-crash", "crash@270:{replica}"),
    "two_crashes": Preset("two_crashes", "two-crashes",
                          "crash@240:*,crash@270:*"),
    "sequential_crashes": Preset("sequential", "sequential-crashes",
                                 "crash@120:*,crash@360:*"),
    "partition": Preset("partition", "partition",
                        "partition@240-{until!r}:{replica}"),
    "retry_storm": Preset(None, "retry-storm",
                          "retrystorm@{at_s!r}-{until!r}:factor={factor!r}"),
    "delayed_recovery": Preset("delayed", "delayed-recovery",
                               "crash@240:1,crash@240:2,reboot@390:2"),
}


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
        # The scenario's faultload and the nemesis() events on top of it,
        # in paper-timeline seconds.
        self._faultload = Faultload("none", ())
        self._nemesis: Tuple[FaultEvent, ...] = ()

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

    def defend(self) -> "Experiment":
        """Switch the overload defenses on (:mod:`repro.resilience`):
        deadline propagation from the clients, proxy circuit breakers +
        AIMD concurrency limit + redispatch budget, and server admission
        control (bounded queue, CoDel, deadline shedding).  Off by
        default; an undefended run is bit-for-bit the historical one."""
        self._overrides["defenses"] = True
        return self

    def nemesis(self, spec: str) -> "Experiment":
        """Fault events (typically drop/dup/delay/oneway message faults
        and torn/corrupt/fsynclie/failslow disk faults) injected on top of
        whatever the scenario or :meth:`faults` injects.  They join the
        run's one faultload: checked, armed and counted like the
        scenario's own events.  A second call replaces the first."""
        self._nemesis = Faultload.parse(spec).events
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

    def observe(self, tick_s: Optional[float] = None) -> "Experiment":
        """Enable the observability stack (metrics registry, timeline
        sampling every ``tick_s`` paper-seconds, by default
        ``obs_tick_s``, and kernel profiling)."""
        self._overrides["observability"] = True
        if tick_s is not None:
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

    def record(self) -> "Experiment":
        """Enable the flight recorder (:mod:`repro.obs.recorder`): a
        bounded ring of structured events (fault injections, failovers,
        elections, recovery milestones, SLO alerts) exposed as
        ``result.flight`` (``result.flight.dump(path)`` writes it as
        JSONL).  The run itself stays bit-for-bit identical to an
        unrecorded run at the same seed."""
        self._overrides["flight_recorder"] = True
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
        """The resolved :class:`ClusterConfig` this experiment will run,
        checked against the targets of the run's faultload."""
        config = (replace(self._base, **self._overrides) if self._overrides
                  else self._base)
        config.check_faults(self._paper_faultload())
        return config

    # ------------------------------------------------------------------
    # scenarios (fault times in paper-timeline seconds)
    # ------------------------------------------------------------------
    def _preset(self, method: str, **fields) -> "Experiment":
        preset = PRESETS[method]
        self._faultload = Faultload.parse(preset.spec.format(**fields),
                                          name=preset.faultload)
        return self

    def baseline(self) -> "Experiment":
        """Failure-free run (speedup/scaleup building block)."""
        return self._preset("baseline")

    def faults(self, spec: str) -> "Experiment":
        """A user-authored faultload (grammar:
        :meth:`repro.faults.Faultload.parse`); replicas named by a
        ``reboot`` event get their watchdog held for good, so the reboot
        is genuinely manual."""
        self._faultload = Faultload.parse(spec)
        return self

    def one_crash(self, replica: Optional[int] = None) -> "Experiment":
        """Section 5.4: one crash at t=270 s (of ``replica``, or a random
        live one), autonomous recovery."""
        return self._preset("one_crash",
                            replica="*" if replica is None else replica)

    def two_crashes(self) -> "Experiment":
        """Section 5.5: concurrent crashes at t=240 s and t=270 s
        (random replicas), both recovered autonomously."""
        return self._preset("two_crashes")

    def sequential_crashes(self) -> "Experiment":
        """Extension: two sequential crashes at t=120 s and t=360 s, the
        second after the first replica has long recovered."""
        return self._preset("sequential_crashes")

    def partition(self, replica: int = 2,
                  duration_s: float = 60.0) -> "Experiment":
        """Extension: isolate one replica (it stays up) at t=240 s, heal
        after ``duration_s`` paper-seconds."""
        if not duration_s > 0:
            raise ValueError(
                f"partition duration must be positive, got {duration_s}")
        return self._preset("partition", replica=replica,
                            until=240.0 + float(duration_s))

    def retry_storm(self, at_s: float = 240.0, duration_s: float = 30.0,
                    factor: float = 8.0) -> "Experiment":
        """Extension (repro.resilience): a transient ``factor``x slowdown
        of every replica CPU over ``[at_s, at_s + duration_s)``
        paper-seconds.  Under open-loop load near saturation with naive
        client retries this trigger tips the deployment into metastable
        collapse; ``result.metastability()`` renders the verdict."""
        if not duration_s > 0:
            raise ValueError(
                f"retry_storm duration must be positive, got {duration_s}")
        at_s = float(at_s)
        return self._preset("retry_storm", at_s=at_s,
                            until=at_s + float(duration_s),
                            factor=float(factor))

    def delayed_recovery(self) -> "Experiment":
        """Section 5.6: replicas 1 and 2 crash at t=240 s; replica 1
        recovers autonomously, replica 2 only on a manual reboot at
        t=390 s."""
        return self._preset("delayed_recovery")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Build the deployment, inject the faults, return the result."""
        config = self.build_config()
        return _execute(config, self._resolve_faultload(config))

    def _paper_faultload(self) -> Faultload:
        """The run's one :class:`Faultload` in paper seconds: the
        scenario's, under its name, with the :meth:`nemesis` events
        first."""
        return replace(self._faultload,
                       events=(*self._nemesis, *self._faultload.events))

    def _resolve_faultload(self, config: ClusterConfig) -> Faultload:
        """The run's :class:`Faultload` on the compressed timeline."""
        return self._paper_faultload().scaled(config.scale)
