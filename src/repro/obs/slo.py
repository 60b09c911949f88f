"""Declarative SLOs with multi-window, multi-burn-rate alerting.

An SLO spec is a comma-separated list of objectives::

    wirt_p99<2s,error_rate<1%

Three objective forms are accepted:

``wirt_pXX<T``
    Latency objective: at least XX% of interactions must complete
    within ``T`` (``2s``, ``500ms``, or a bare number of seconds).
    The error budget is the remaining ``(100-XX)%``; an interaction is
    *bad* when it errors or its WIRT exceeds ``T`` (a failed request is
    never "fast").
``error_rate<P%``
    Availability objective: the fraction of interactions that error
    must stay below ``P%``; the budget is ``P%``.
``availability>A%``
    Sugar for ``error_rate<(100-A)%``.

Latency thresholds are compared against **raw** WIRTs, exactly like the
paper's accuracy constraints in
:func:`repro.faults.metrics.wirt_compliance` (time compression shrinks
the experiment's timeline, not individual response times).  The burn
windows below, by contrast, are *timeline durations* and are compressed
through ``ExperimentScale.t()`` like faultload injection times and the
observability tick, so the same spec means the same thing at every
scale.

Evaluation follows the Google SRE workbook's multi-window
multi-burn-rate pattern: the burn rate is the bad fraction over a
trailing window divided by the budget (burn 1.0 = spending the budget
exactly; burn 10 = ten times too fast).  Two window pairs are checked
-- a *fast* pair (60 s long / 5 s short, threshold 14.4) that catches
abrupt outages like a crash, and a *slow* pair (600 s / 60 s,
threshold 6) that catches sustained degradation -- and an alert fires,
as a timestamped event, when **both** windows of a pair exceed the
pair's threshold (the short window gates on "still happening", which
keeps alerts from re-firing long after recovery).  The
:class:`SloEngine` runs as a simulation process ticking every short
window, reading the interaction stream the
:class:`repro.faults.metrics.MetricsCollector` already records, so
judgment happens *in sim time* and alerts land in the flight recorder
interleaved with the faults and failovers that caused them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.trace import log_of

__all__ = [
    "SloError",
    "Objective",
    "BurnWindow",
    "SloEngine",
    "parse_slo",
    "BURN_WINDOWS",
]


class SloError(ValueError):
    """Raised for an unparseable SLO spec."""


#: The two Google-SRE window pairs: (name, long_s, short_s, threshold),
#: windows in paper seconds.  Threshold 14.4 on the fast pair flags a
#: budget spent >14x too fast over the last minute; threshold 6 on the
#: slow pair flags sustained 6x overspend over ten minutes.
BURN_WINDOWS: Tuple[Tuple[str, float, float, float], ...] = (
    ("fast", 60.0, 5.0, 14.4),
    ("slow", 600.0, 60.0, 6.0),
)

_LATENCY_RE = re.compile(r"^wirt_p(\d{1,2}(?:\.\d+)?)$")
_TIME_RE = re.compile(r"^(\d+(?:\.\d+)?)(ms|s)?$")
_PCT_RE = re.compile(r"^(\d+(?:\.\d+)?)%$")


class Objective:
    """One parsed objective: a bad-event predicate plus an error budget."""

    __slots__ = ("name", "kind", "budget", "threshold_s")

    def __init__(self, name: str, kind: str, budget: float,
                 threshold_s: Optional[float] = None) -> None:
        self.name = name            # the spec token, verbatim
        self.kind = kind            # "latency" | "error_rate"
        self.budget = budget        # allowed bad fraction, (0, 1)
        self.threshold_s = threshold_s  # paper seconds (latency only)

    def is_bad(self, sent_at: float, done_at: float, ok: bool,
               scaled_threshold_s: Optional[float]) -> bool:
        if not ok:
            return True
        if self.kind == "latency":
            return (done_at - sent_at) > scaled_threshold_s
        return False

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name, "kind": self.kind, "budget": self.budget}
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        return out


def _parse_time_s(text: str, token: str) -> float:
    match = _TIME_RE.match(text)
    if not match:
        raise SloError(f"bad latency threshold {text!r} in SLO "
                       f"objective {token!r} (want e.g. 2s, 500ms)")
    value = float(match.group(1))
    if match.group(2) == "ms":
        value /= 1000.0
    if value <= 0.0:
        raise SloError(f"latency threshold must be positive in {token!r}")
    return value


def _parse_pct(text: str, token: str) -> float:
    match = _PCT_RE.match(text)
    if not match:
        raise SloError(f"bad percentage {text!r} in SLO objective "
                       f"{token!r} (want e.g. 1%, 99.9%)")
    return float(match.group(1))


def parse_slo(spec: str) -> List[Objective]:
    """Parse a spec like ``'wirt_p99<2s,error_rate<1%'``."""
    objectives: List[Objective] = []
    seen: set = set()
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        if ">" in token:
            name, _, value = token.partition(">")
            name, value = name.strip(), value.strip()
            if name != "availability":
                raise SloError(f"only 'availability' takes '>', got {token!r}")
            pct = _parse_pct(value, token)
            if not 0.0 < pct < 100.0:
                raise SloError(f"availability target must be in (0, 100), "
                               f"got {token!r}")
            objectives.append(Objective(token, "error_rate",
                                        (100.0 - pct) / 100.0))
        elif "<" in token:
            name, _, value = token.partition("<")
            name, value = name.strip(), value.strip()
            latency = _LATENCY_RE.match(name)
            if latency:
                pctile = float(latency.group(1))
                if not 0.0 < pctile < 100.0:
                    raise SloError(f"percentile must be in (0, 100), "
                                   f"got {token!r}")
                objectives.append(Objective(
                    token, "latency", (100.0 - pctile) / 100.0,
                    threshold_s=_parse_time_s(value, token)))
            elif name == "error_rate":
                pct = _parse_pct(value, token)
                if not 0.0 < pct < 100.0:
                    raise SloError(f"error-rate budget must be in (0, 100), "
                                   f"got {token!r}")
                objectives.append(Objective(token, "error_rate", pct / 100.0))
            else:
                raise SloError(
                    f"unknown SLO objective {token!r} "
                    f"(want wirt_pXX<T, error_rate<P%, availability>A%)")
        else:
            raise SloError(f"objective {token!r} has no comparison "
                           f"(want e.g. wirt_p99<2s)")
        if objectives[-1].name in seen:
            raise SloError(f"duplicate SLO objective {token!r}")
        seen.add(objectives[-1].name)
    if not objectives:
        raise SloError(f"empty SLO spec {spec!r}")
    return objectives


class _Identity:
    """Fallback scale for standalone use: paper seconds == sim seconds."""

    @staticmethod
    def t(seconds: float) -> float:
        return seconds


class SloEngine:
    """Evaluates objectives against the collector's interaction stream.

    Reads ``collector.samples`` (``(sent_at, done_at, interaction, ok,
    error_kind)``, appended in completion order) incrementally and
    keeps per-objective cumulative bad counts, so each tick costs
    O(new samples + log n) and never re-scans history.  The engine is
    passive: it schedules only its own timer, draws no randomness, and
    sends no messages, so enabling it leaves the rest of the run
    bit-for-bit unchanged (same discipline as the TimelineSampler).

    Alerts are dicts ``{"t", "objective", "window", "burn_long",
    "burn_short", "threshold"}`` appended on the rising edge of each
    (objective, window-pair) condition; they re-arm once the condition
    clears, and each firing/clearing is also emitted on the simulator's
    event log (``slo.alert`` / ``slo.alert_cleared``) when it has one.
    """

    def __init__(self, sim: Any, collector: Any, spec: str,
                 scale: Any = None, warmup_until: float = 0.0) -> None:
        self._sim = sim
        self._collector = collector
        self._events = log_of(sim)
        self.spec = spec
        self.objectives = parse_slo(spec)
        # Alerting starts after the ramp-up, and alert windows never
        # reach back into it: the paper's measurement discipline ignores
        # warmup everywhere, and the first few boot-time completions
        # (a handful of 503s while replicas come up) would otherwise
        # read as a 100% bad fraction and fire every alert at t~0.
        self.warmup_until = warmup_until
        scale = scale if scale is not None else _Identity()
        self.windows = [
            (name, scale.t(long_s), scale.t(short_s), threshold)
            for name, long_s, short_s, threshold in BURN_WINDOWS]
        self.tick_s = min(short for _n, _l, short, _t in self.windows)
        # Latency thresholds stay in raw seconds: WIRTs are not timeline-
        # compressed (same convention as metrics.wirt_compliance).
        self._thresholds_s = [obj.threshold_s for obj in self.objectives]
        # Incremental ingestion state: completion times (monotone) and,
        # per objective, cumulative bad counts aligned with them.
        self._next = 0
        self._times: List[float] = []
        self._bad_cum: List[List[int]] = [[] for _ in self.objectives]
        self.alerts: List[Dict[str, Any]] = []
        self._firing: Dict[Tuple[int, str], bool] = {}
        self._last_eval: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._sim.spawn(self._loop(), name="slo-engine")

    def _loop(self):
        if self.warmup_until > self._sim.now:
            yield self._sim.timeout(self.warmup_until - self._sim.now)
        while True:
            self.evaluate_at(self._sim.now)
            yield self._sim.timeout(self.tick_s)

    # ------------------------------------------------------------------
    def _ingest(self) -> None:
        samples = self._collector.samples
        while self._next < len(samples):
            sent_at, done_at, _interaction, ok, _err = samples[self._next]
            self._times.append(done_at)
            for index, objective in enumerate(self.objectives):
                bad = objective.is_bad(sent_at, done_at, ok,
                                       self._thresholds_s[index])
                cum = self._bad_cum[index]
                cum.append((cum[-1] if cum else 0) + (1 if bad else 0))
            self._next += 1

    def _window_counts(self, index: int, start: float,
                       end: float) -> Tuple[int, int]:
        """(bad, total) for objective ``index`` completing in [start, end]."""
        left = bisect_left(self._times, start)
        if end >= (self._times[-1] if self._times else start):
            right = len(self._times)
        else:
            right = bisect_left(self._times, end, left)
            while right < len(self._times) and self._times[right] <= end:
                right += 1
        total = right - left
        if total <= 0:
            return 0, 0
        cum = self._bad_cum[index]
        bad = cum[right - 1] - (cum[left - 1] if left > 0 else 0)
        return bad, total

    def burn_rate(self, index: int, start: float, end: float) -> float:
        """Bad fraction over [start, end] divided by the budget."""
        bad, total = self._window_counts(index, start, end)
        if total == 0:
            return 0.0
        return (bad / total) / self.objectives[index].budget

    # ------------------------------------------------------------------
    def evaluate_at(self, now: float) -> None:
        """Ingest new samples and fire/clear alerts as of ``now``.

        Called by the engine's own tick loop; also callable directly
        with synthetic collectors in tests (feed samples, step ``now``
        forward, observe exact fire times).
        """
        self._ingest()
        self._last_eval = now
        for index, objective in enumerate(self.objectives):
            for window_name, long_s, short_s, threshold in self.windows:
                burn_long = self.burn_rate(
                    index, max(now - long_s, self.warmup_until), now)
                burn_short = self.burn_rate(
                    index, max(now - short_s, self.warmup_until), now)
                firing = burn_long > threshold and burn_short > threshold
                key = (index, window_name)
                was_firing = self._firing.get(key, False)
                if firing and not was_firing:
                    alert = {
                        "t": now,
                        "objective": objective.name,
                        "window": window_name,
                        "burn_long": round(burn_long, 3),
                        "burn_short": round(burn_short, 3),
                        "threshold": threshold,
                    }
                    self.alerts.append(alert)
                    if self._events is not None:
                        self._events.emit(
                            "slo.alert", None, objective=objective.name,
                            window=window_name,
                            burn_long=alert["burn_long"],
                            burn_short=alert["burn_short"])
                elif was_firing and not firing:
                    if self._events is not None:
                        self._events.emit(
                            "slo.alert_cleared", None,
                            objective=objective.name, window=window_name)
                self._firing[key] = firing

    def finalize(self, now: float) -> None:
        """One last evaluation at run end (skipped if a tick just ran)."""
        if self._last_eval != now:
            self.evaluate_at(now)

    # ------------------------------------------------------------------
    def window_burn(self, start: float, end: float,
                    budget_window: Tuple[float, float]) -> List[Dict[str, Any]]:
        """Per-objective budget spend of [start, end].

        ``budget_window`` (normally the measurement window) defines the
        total error budget -- ``budget * interactions in it`` -- so an
        incident's burn is the fraction of the whole run's budget it
        consumed, comparable across incidents.
        """
        self._ingest()
        out: List[Dict[str, Any]] = []
        for index, objective in enumerate(self.objectives):
            bad, total = self._window_counts(index, start, end)
            _whole_bad, whole_total = self._window_counts(
                index, budget_window[0], budget_window[1])
            allowance = objective.budget * whole_total
            out.append({
                "objective": objective.name,
                "bad": bad,
                "total": total,
                "bad_fraction": round(bad / total, 6) if total else 0.0,
                "budget_burn": round(bad / allowance, 4) if allowance else 0.0,
            })
        return out

    def report(self, measure_start: float,
               measure_end: float) -> Dict[str, Any]:
        """Pass/fail verdict per objective over the measurement window."""
        self._ingest()
        objectives: List[Dict[str, Any]] = []
        for index, objective in enumerate(self.objectives):
            bad, total = self._window_counts(index, measure_start, measure_end)
            bad_fraction = bad / total if total else 0.0
            burn = bad_fraction / objective.budget
            entry = objective.to_dict()
            entry.update({
                "bad": bad,
                "total": total,
                "sli_bad_fraction": round(bad_fraction, 6),
                "budget_burn": round(burn, 4),
                "pass": bad_fraction <= objective.budget,
                "alerts": sum(1 for alert in self.alerts
                              if alert["objective"] == objective.name),
            })
            objectives.append(entry)
        return {
            "spec": self.spec,
            "window": [measure_start, measure_end],
            "objectives": objectives,
            "alerts": list(self.alerts),
            "pass": all(entry["pass"] for entry in objectives),
            "total_budget_burn": round(
                max((entry["budget_burn"] for entry in objectives),
                    default=0.0), 4),
        }
