"""Experiment execution and results (the paper's Section 5 runs).

The public way to drive a run is the fluent builder in
:mod:`repro.harness.experiment`::

    from repro.harness import Experiment

    result = (Experiment(replicas=5)
              .load("closed", wips=1900, mix="shopping")
              .one_crash()
              .observe()
              .run())

This module holds the pieces the builder is made of: the shared
:func:`_execute` engine-room (cluster + faultload + measurement) and the
:class:`ExperimentResult` every table and figure is derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.checker import Violation
from repro.faults.faultload import FaultInjector, Faultload
from repro.faults.metrics import (
    BUCKET_S,
    MetricsCollector,
    NemesisStats,
    WindowStats,
    autonomy,
    performability_pv,
)
from repro.harness.cluster import RobustStoreCluster
from repro.harness.config import ClusterConfig
from repro.obs import trace as obs_trace
from repro.obs.timeline import Timeline
from repro.obs.trace import SpanTracer


class MissingWindowError(ValueError):
    """A result window was requested that this run never produced."""


class MissingTraceError(ValueError):
    """A trace analysis was requested on a run without span tracing."""


class MissingSloError(ValueError):
    """An SLO report was requested on a run that judged no SLOs."""


@dataclass
class ExperimentResult:
    """Everything the tables and figures are derived from."""

    config: ClusterConfig
    collector: MetricsCollector
    measure_start: float
    measure_end: float
    faults_injected: int
    interventions: int
    recoveries: List[Dict[str, float]]
    first_crash_at: Optional[float] = None
    nemesis: Optional[NemesisStats] = None
    # Safety audit verdict (only when config.safety_tracing was on):
    # an empty list means the checker passed; None means it did not run.
    safety_violations: Optional[List[Violation]] = None
    # Observability extras (only when config.observability was on).
    timeline: Optional[Timeline] = None
    kernel_profile: Optional[dict] = None
    metrics: Optional[dict] = None  # final registry snapshot
    # Causal span tracer (only when config.span_tracing was on).
    spans: Optional[SpanTracer] = None
    # Storage-nemesis counters (only when a storage faultload ran):
    # injections (torn/corrupted/lied writes) and repairs (frames
    # scrubbed, suffix truncations, checkpoint discards, peer repairs).
    storage: Optional[Dict[str, float]] = None
    #: name of the faultload this run executed ("none" for baselines)
    faultload_name: str = "none"
    # The live cluster object (only when config.keep_cluster was on);
    # never serialized -- it exists so post-run oracles (the fault-space
    # explorer's liveness check) can read end-of-run replica state.
    cluster: Optional[object] = None
    # Flight recorder ring (only when config.recording_enabled):
    # the run's black box of structured events (repro.obs.recorder).
    flight: Optional[object] = None
    # SLO engine (only when config.slo_spec was set): alerts fired in
    # sim time plus the objective arithmetic behind slo_report().
    slo: Optional[object] = None
    # Retry-storm trigger window on the compressed timeline, as the
    # injector actually fired it: (trigger_at, healed_at).  Only set
    # when the faultload held a 'retrystorm' event; feeds
    # :meth:`metastability`.
    retrystorm_window: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    @property
    def last_ready_at(self) -> Optional[float]:
        ready = [r["ready_at"] for r in self.recoveries
                 if r["ready_at"] is not None]
        return max(ready) if ready else None

    def recovery_times(self) -> List[float]:
        """Reboot-to-ready duration of every completed recovery."""
        return [r["ready_at"] - r["rebooted_at"] for r in self.recoveries
                if r["ready_at"] is not None]

    # windows ------------------------------------------------------------
    @property
    def bucket_s(self) -> float:
        """The paper's 5 s histogram bucket, on the compressed timeline."""
        return self.config.scale.t(BUCKET_S)

    def whole_window(self) -> WindowStats:
        return self.collector.window(self.measure_start, self.measure_end,
                                     self.bucket_s)

    def failure_free_window(self) -> WindowStats:
        end = self.first_crash_at or self.measure_end
        return self.collector.window(self.measure_start,
                                     min(end, self.measure_end), self.bucket_s)

    def recovery_window(self) -> WindowStats:
        """WIPS/WIRT stats from the first crash to the last recovery.

        Raises :class:`MissingWindowError` on runs that recorded no
        crash, instead of silently returning ``None`` -- a baseline has
        no recovery window, and code that reads one off a faultless run
        is a bug at the call site.
        """
        window = self._recovery_window_or_none()
        if window is None:
            raise MissingWindowError(
                f"this run (faultload {self.faultload_name!r}) recorded no "
                f"crash or partition, so it has no recovery window; run a "
                f"crash scenario (e.g. Experiment(...).one_crash() or "
                f"repro run one_crash) or use whole_window() / "
                f"failure_free_window() for failure-free runs")
        return window

    def _recovery_window_or_none(self) -> Optional[WindowStats]:
        if self.first_crash_at is None:
            return None
        end = self.last_ready_at or self.measure_end
        return self.collector.window(self.first_crash_at,
                                     min(end, self.measure_end), self.bucket_s)

    def window_between(self, start: float, end: float) -> WindowStats:
        return self.collector.window(start, end, self.bucket_s)

    # trace analytics ----------------------------------------------------
    def _require_spans(self) -> SpanTracer:
        if self.spans is None:
            raise MissingTraceError(
                "this run recorded no spans; enable tracing with "
                "Experiment(...).trace() or repro trace")
        return self.spans

    def critical_path(self) -> "obs_trace.CriticalPathReport":
        """Per-interaction WIRT decomposition (requires ``.trace()``)."""
        return obs_trace.critical_path(self._require_spans())

    def recovery_phases(self) -> List[dict]:
        """Per-recovery phase breakdown (requires ``.trace()``)."""
        return obs_trace.recovery_phases(self._require_spans(),
                                         self.recoveries)

    # SLO / post-mortem analytics ----------------------------------------
    def slo_report(self) -> dict:
        """Pass/fail per objective plus total error-budget burn
        (requires ``.slo(spec)`` / ``--slo``)."""
        if self.slo is None:
            raise MissingSloError(
                "this run judged no SLOs; set objectives with "
                "Experiment(...).slo('wirt_p99<2s,error_rate<1%') or "
                "--slo on the CLI")
        return self.slo.report(self.measure_start, self.measure_end)

    def incident_report(self) -> dict:
        """The automated post-mortem (requires the flight recorder)."""
        from repro.obs.incident import build_incident_report
        return build_incident_report(self)

    # metastability ------------------------------------------------------
    def metastability(self, oracle=None):
        """The retry-storm verdict (requires a ``retrystorm`` faultload).

        Judges post-heal goodput against the pre-trigger baseline with a
        :class:`repro.resilience.MetastabilityOracle`; the default
        oracle's sustain/grace/bucket constants are paper-timeline
        seconds compressed by the run's scale.
        """
        if self.retrystorm_window is None:
            raise MissingWindowError(
                f"this run (faultload {self.faultload_name!r}) fired no "
                f"retrystorm trigger, so there is no metastability "
                f"verdict; inject one with .faults('retrystorm@240-270:"
                f"factor=8') or Experiment(...).retry_storm()")
        trigger_at, healed_at = self.retrystorm_window
        if oracle is None:
            from repro.resilience.oracle import MetastabilityOracle
            scale = self.config.scale
            oracle = MetastabilityOracle(sustain_s=scale.t(60.0),
                                         grace_s=scale.t(30.0),
                                         bucket_s=self.bucket_s)
        return oracle.judge(self.collector,
                            measure_start=self.measure_start,
                            trigger_at=trigger_at, healed_at=healed_at,
                            end=self.measure_end)

    def _metastability_or_none(self):
        if self.retrystorm_window is None:
            return None
        return self.metastability()

    # measures -----------------------------------------------------------
    def pv_pct(self) -> Optional[float]:
        recovery = self._recovery_window_or_none()
        if recovery is None:
            return None
        return performability_pv(self.failure_free_window(), recovery)

    def accuracy_pct(self) -> Optional[float]:
        """``None`` when the measurement interval saw no interaction."""
        return self.collector.accuracy_pct(self.measure_start, self.measure_end)

    def availability(self) -> float:
        return self.collector.availability(self.measure_start, self.measure_end)

    def autonomy_ratio(self) -> float:
        return autonomy(self.interventions, self.faults_injected)

    def wips_series(self, bucket_s: Optional[float] = None):
        bucket = bucket_s if bucket_s is not None else self.bucket_s
        return self.collector.wips_series(
            0.0, self.measure_end + self.config.scale.t(30.0), bucket)

    def to_dict(self) -> dict:
        """A JSON-serializable summary (CLI ``--json``, notebooks, CI)."""
        whole = self.whole_window()
        ff = self.failure_free_window()
        recovery = self._recovery_window_or_none()
        compliance = self.collector.wirt_compliance(self.measure_start,
                                                    self.measure_end)
        return {
            "config": {
                "replicas": self.config.replicas,
                "shards": self.config.shards,
                "profile": self.config.profile,
                "num_ebs": self.config.num_ebs,
                "offered_wips": self.config.offered_wips,
                "load_mode": self.config.load_mode,
                "population": (self.config.effective_population
                               if self.config.load_mode == "open" else None),
                "arrival": (self.config.arrival
                            if self.config.load_mode == "open" else None),
                "seed": self.config.seed,
                "scale": self.config.scale.name,
                "time_div": self.config.scale.time_div,
                "load_div": self.config.scale.load_div,
            },
            "faultload": self.faultload_name,
            "awips": whole.awips,
            "cv": whole.cv,
            "mean_wirt_s": whole.mean_wirt_s,
            "p90_wirt_s": whole.p90_wirt_s,
            "completed": whole.completed,
            "errors": whole.errors,
            "accuracy_pct": self.accuracy_pct(),
            "availability": self.availability(),
            "failure_free_awips": ff.awips,
            "recovery_awips": recovery.awips if recovery else None,
            "pv_pct": self.pv_pct(),
            "recovery_times_s": self.recovery_times(),
            "faults_injected": self.faults_injected,
            "interventions": self.interventions,
            "autonomy": self.autonomy_ratio(),
            "wirt_compliance": {interaction.value: round(fraction, 4)
                                for interaction, fraction
                                in sorted(compliance.items(),
                                          key=lambda kv: kv[0].value)},
            "wips_series": [(round(t, 3), round(w, 3))
                            for t, w in self.wips_series()],
            "nemesis": self.nemesis.to_dict() if self.nemesis else None,
            "safety_violations": (
                None if self.safety_violations is None
                else [str(v) for v in self.safety_violations]),
            "timeline": (None if self.timeline is None
                         else self.timeline.to_dict()),
            "kernel_profile": self.kernel_profile,
            "metrics": self.metrics,
            "storage": self.storage,
            "slo": (self.slo.report(self.measure_start, self.measure_end)
                    if self.slo is not None else None),
            "metastability": (
                None if self.retrystorm_window is None
                else self.metastability().to_dict()),
            "flight_recorder": (
                None if self.flight is None
                else {"recorded": self.flight.recorded,
                      "evicted": self.flight.evicted,
                      "capacity": self.flight.capacity}),
        }


# ======================================================================
# the engine room every run goes through
# ======================================================================
def _execute(config: ClusterConfig, faultload: Faultload) -> ExperimentResult:
    """Run ``faultload`` (already checked against ``config`` and on the
    compressed timeline) on a fresh deployment of ``config``."""
    cluster = RobustStoreCluster(config)
    injector = FaultInjector(cluster.sim, cluster, faultload,
                             rng=cluster.seed.fork_random("faultload"))
    injector.arm()
    scale = config.scale
    cluster.run_until(scale.total_s)
    violations = None
    if config.safety_tracing:
        violations = cluster.safety_checker().violations()
    kernel_profile = None
    metrics_snapshot = None
    if cluster.profiler is not None:
        kernel_profile = cluster.profiler.summary(scale.total_s)
    if cluster.metrics is not None:
        metrics_snapshot = cluster.metrics.snapshot()
    # A tripped restart breaker is a manual intervention the paper's
    # autonomy measure must count: the operator has to step in, exactly
    # like a manual reboot.
    interventions = injector.interventions + cluster.breaker_trips()
    return ExperimentResult(
        config=config, collector=cluster.collector,
        measure_start=scale.measure_start, measure_end=scale.measure_end,
        faults_injected=injector.faults_injected,
        interventions=interventions,
        recoveries=cluster.recoveries,
        first_crash_at=injector.first_outage,
        nemesis=cluster.nemesis_stats(),
        safety_violations=violations,
        timeline=cluster.timeline,
        kernel_profile=kernel_profile,
        metrics=metrics_snapshot,
        spans=cluster.span_tracer,
        storage=cluster.storage_stats(),
        faultload_name=faultload.name,
        cluster=cluster if config.keep_cluster else None,
        flight=cluster.recorder,
        slo=cluster.slo_engine,
        retrystorm_window=injector.trigger_window)
