"""Observability: metrics registry, sim-time timelines, kernel profiling.

The paper's contribution is *measurement* -- WIPS/WIRT curves and
dependability metrics read off a running cluster -- so the repro carries
a first-class observability layer:

* :mod:`repro.obs.registry` -- :class:`MetricsRegistry` with counters,
  gauges, and streaming (bucketed) histograms.  Counters are read from
  the ``stats`` dicts the components count in (one registration per
  component, via :func:`registry_of`); with no registry attached,
  registering is a no-op and histograms are a shared no-op;
* :mod:`repro.obs.timeline` -- :class:`TimelineSampler` samples every
  instrument on sim-time ticks into a :class:`Timeline` (JSON/CSV
  export, derived rates);
* :mod:`repro.obs.profiler` -- :class:`KernelProfiler` attributes the
  event kernel's wall-clock to layers (events per simulated second,
  wall-clock per event category);
* :mod:`repro.obs.trace` -- :class:`SpanTracer` records causal spans per
  TPC-W interaction across every layer (hops, queueing, disk, quorum
  wait, apply), with a WIRT critical-path decomposer, recovery-phase
  forensics, and JSONL / Chrome trace-event exports;
* :mod:`repro.obs.recorder` -- :class:`FlightRecorder`, a bounded ring
  of structured events (fault injections, failovers, elections,
  recovery milestones, SLO alerts) with JSONL dump -- the run's black
  box;
* :mod:`repro.obs.slo` -- declarative SLOs (``wirt_p99<2s``,
  ``error_rate<1%``) judged in sim time with Google-SRE multi-window
  burn-rate alerts;
* :mod:`repro.obs.incident` -- the post-mortem builder correlating
  recorder events, recovery forensics, and SLO burn into per-incident
  reports (``repro postmortem``).

Discrete happenings (a crash, an election, a checkpoint load) are not
reported to these observers one by one: each is emitted once on the
simulator's event log (:mod:`repro.sim.trace`), and the flight
recorder, the span tracer's recovery milestones and the safety audit
subscribe to the kinds they keep.

Enable the whole stack on a run with ``ClusterConfig(observability=True)``
or ``Experiment(...).observe()``; from the CLI, ``repro run --obs``.
Span tracing is separate (``span_tracing=True`` / ``.trace()`` /
``repro trace``) because it records per-event data rather than
aggregates; the flight recorder and SLO engine follow the same opt-in
(``.record()`` / ``.slo()`` / ``--slo``).
"""

from repro.obs.incident import (
    MissingRecorderError,
    build_incident_report,
    render_markdown,
)
from repro.obs.profiler import KernelProfiler, category_of_module
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    NULL_REGISTRY,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    StreamingHistogram,
    registry_of,
    to_prometheus,
)
from repro.obs.slo import Objective, SloEngine, SloError, parse_slo
from repro.obs.timeline import Timeline, TimelineSampler
from repro.obs.trace import (
    CriticalPathReport,
    InjectionPoint,
    Span,
    SpanTracer,
    critical_path,
    current_trace,
    injection_points,
    recovery_phases,
    spans_of,
)

__all__ = [
    "NULL_REGISTRY",
    "CriticalPathReport",
    "FlightRecorder",
    "Gauge",
    "InjectionPoint",
    "KernelProfiler",
    "MetricsRegistry",
    "MissingRecorderError",
    "NullRegistry",
    "Objective",
    "SloEngine",
    "SloError",
    "Span",
    "SpanTracer",
    "StreamingHistogram",
    "Timeline",
    "TimelineSampler",
    "build_incident_report",
    "category_of_module",
    "critical_path",
    "current_trace",
    "injection_points",
    "parse_slo",
    "recovery_phases",
    "registry_of",
    "render_markdown",
    "spans_of",
    "to_prometheus",
]
