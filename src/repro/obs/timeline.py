"""Sim-time timelines: the registry sampled into per-run time series.

A :class:`TimelineSampler` is a simulation process that wakes every
``tick_s`` simulated seconds and records every registered instrument
into a :class:`Timeline`:

* counters -> one cumulative series per counter (rates are derived on
  demand via :meth:`Timeline.rate`);
* gauges -> one instantaneous series per gauge;
* histograms -> four flat series, ``<name>.count`` (cumulative) and
  ``<name>.p50`` / ``.p95`` / ``.p99`` (running quantiles).

Everything is plain scalars keyed by series name, so a timeline exports
losslessly to JSON (``to_dict``/``from_dict``) and to a tick-aligned CSV
(``to_csv``) for spreadsheets and plotting scripts.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

#: series whose samples are cumulative counts (rates can be derived)
KIND_COUNTER = "counter"
#: series whose samples are instantaneous readings
KIND_GAUGE = "gauge"


class Timeline:
    """Named scalar time series collected over one run."""

    def __init__(self, tick_s: float):
        self.tick_s = tick_s
        self._series: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    def record(self, name: str, t: float, value: float,
               kind: str = KIND_GAUGE) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = {"kind": kind, "points": []}
        series["points"].append((t, value))

    def names(self) -> List[str]:
        return sorted(self._series)

    def kind(self, name: str) -> str:
        return self._series[name]["kind"]

    def points(self, name: str) -> List[Tuple[float, float]]:
        """The raw ``(t, value)`` samples of one series."""
        return list(self._series[name]["points"])

    def rate(self, name: str) -> List[Tuple[float, float]]:
        """Per-second rate between consecutive samples of a cumulative
        series; gauges have no meaningful rate and raise ``ValueError``."""
        series = self._series[name]
        if series["kind"] != KIND_COUNTER:
            raise ValueError(f"series {name!r} is a {series['kind']}, "
                             f"only counters have rates")
        points = series["points"]
        rates = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt > 0:
                rates.append((t1, (v1 - v0) / dt))
        return rates

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "tick_s": self.tick_s,
            "series": {
                name: {"kind": series["kind"],
                       "points": [[round(t, 6), value]
                                  for t, value in series["points"]]}
                for name, series in sorted(self._series.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        timeline = cls(data["tick_s"])
        for name, series in data["series"].items():
            for t, value in series["points"]:
                timeline.record(name, t, value, kind=series["kind"])
        return timeline

    def to_csv(self) -> str:
        """Tick-aligned CSV: one ``t`` column plus one column per series
        (blank where a series has no sample at that tick)."""
        names = self.names()
        by_time: Dict[float, Dict[str, float]] = {}
        for name in names:
            for t, value in self._series[name]["points"]:
                by_time.setdefault(round(t, 6), {})[name] = value
        out = io.StringIO()
        out.write(",".join(["t"] + names) + "\n")
        for t in sorted(by_time):
            row = by_time[t]
            cells = [f"{t:g}"] + [
                f"{row[name]:g}" if name in row else "" for name in names]
            out.write(",".join(cells) + "\n")
        return out.getvalue()


class TimelineSampler:
    """The sampling process: registry -> timeline, every ``tick_s``."""

    def __init__(self, sim, registry, tick_s: float,
                 timeline: Optional[Timeline] = None):
        self._sim = sim
        self._registry = registry
        self.tick_s = tick_s
        self.timeline = timeline if timeline is not None else Timeline(tick_s)
        self._last_sample_t: Optional[float] = None

    def start(self) -> None:
        self._sim.spawn(self._loop(), name="obs-sampler")

    def _loop(self):
        while True:
            self.sample()
            yield self._sim.timeout(self.tick_s)

    def flush(self) -> None:
        """Record the trailing partial tick at run end.

        The loop only samples on tick boundaries, so a run whose length
        is not a tick multiple used to lose everything after the final
        boundary (the last partial WIPS bucket, final counter values).
        The harness calls this once after ``run_until``; it is a no-op
        when a boundary sample already landed at exactly this instant.
        """
        if self._last_sample_t != self._sim.now:
            self.sample()

    def sample(self) -> None:
        """Record one sample of every instrument at the current time."""
        t = self._sim.now
        self._last_sample_t = t
        timeline = self.timeline
        for name, value in self._registry.counters().items():
            timeline.record(name, t, value, kind=KIND_COUNTER)
        for name, gauge in self._registry.gauges().items():
            timeline.record(name, t, gauge.read(), kind=KIND_GAUGE)
        for name, histogram in self._registry.histograms().items():
            timeline.record(f"{name}.count", t, histogram.count,
                            kind=KIND_COUNTER)
            for label, value in histogram.percentiles().items():
                timeline.record(f"{name}.{label}", t, value,
                                kind=KIND_GAUGE)
