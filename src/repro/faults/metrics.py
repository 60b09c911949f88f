"""Workload metrics (WIPS, WIRT) and dependability measures.

Definitions follow Section 5.1 of the paper:

* **WIPS** -- web interactions per second, sampled here into the same 5 s
  buckets the paper's histograms use;
* **WIRT** -- web interaction response time;
* **availability** -- fraction of the run during which the application
  delivers service;
* **performability** -- failure-free AWIPS vs. AWIPS during recovery,
  reported as a performance variation (PV %);
* **accuracy** -- percentage of requests answered without error;
* **autonomy** -- human interventions per injected fault (0 = total
  autonomy).

The coefficient of variation (CV) of the bucketed WIPS is reported with
every AWIPS, because the paper shows that high-CV workloads (ordering)
make PV unreliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.tpcw.workload import Interaction

#: The paper's histogram sampling interval.
BUCKET_S = 5.0

#: TPC-W clause 5.1: 90% of each interaction type must complete within
#: its response-time constraint (seconds).
WIRT_CONSTRAINTS_S: Dict[Interaction, float] = {
    Interaction.HOME: 3.0,
    Interaction.NEW_PRODUCTS: 5.0,
    Interaction.BEST_SELLERS: 5.0,
    Interaction.PRODUCT_DETAIL: 3.0,
    Interaction.SEARCH_REQUEST: 3.0,
    Interaction.SEARCH_RESULTS: 10.0,
    Interaction.SHOPPING_CART: 3.0,
    Interaction.CUSTOMER_REGISTRATION: 3.0,
    Interaction.BUY_REQUEST: 3.0,
    Interaction.BUY_CONFIRM: 5.0,
    Interaction.ORDER_INQUIRY: 3.0,
    Interaction.ORDER_DISPLAY: 3.0,
    Interaction.ADMIN_REQUEST: 3.0,
    Interaction.ADMIN_CONFIRM: 20.0,
}


@dataclass(frozen=True)
class NemesisStats:
    """Message-level fault totals for one run (nemesis extension).

    Reported next to the dependability measures so a nemesis run states
    how much adversity the safety checker's verdict covers."""

    messages_sent: int = 0
    messages_delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0

    @classmethod
    def from_network(cls, network) -> "NemesisStats":
        """Snapshot the counters of a :class:`repro.sim.Network` (and its
        attached nemesis, when present)."""
        nemesis = getattr(network, "nemesis", None)
        return cls(
            messages_sent=network.messages_sent,
            messages_delivered=network.messages_delivered,
            dropped=nemesis.dropped if nemesis else 0,
            duplicated=nemesis.duplicated if nemesis else 0,
            delayed=nemesis.delayed if nemesis else 0)

    @property
    def drop_rate(self) -> float:
        if self.messages_sent == 0:
            return 0.0
        return self.dropped / self.messages_sent

    def to_dict(self) -> Dict[str, float]:
        return {"messages_sent": self.messages_sent,
                "messages_delivered": self.messages_delivered,
                "dropped": self.dropped, "duplicated": self.duplicated,
                "delayed": self.delayed,
                "drop_rate": round(self.drop_rate, 6)}


@dataclass
class WindowStats:
    """Aggregates over one time window."""

    start: float
    end: float
    completed: int
    errors: int
    awips: float
    cv: float
    mean_wirt_s: float
    p90_wirt_s: float

    @property
    def accuracy_pct(self) -> float:
        total = self.completed
        if total == 0:
            return 100.0
        return 100.0 * (1.0 - self.errors / total)


class MetricsCollector:
    """Accumulates one sample per completed (or failed) web interaction."""

    def __init__(self) -> None:
        # (sent_at, done_at, interaction, ok, error_kind)
        self.samples: List[Tuple[float, float, Interaction, bool, str]] = []
        self.stats = {"interactions_ok": 0, "interactions_error": 0}

    def record(self, sent_at: float, done_at: float,
               interaction: Interaction, ok: bool, error_kind: str = "") -> None:
        self.samples.append((sent_at, done_at, interaction, ok, error_kind))
        self.stats["interactions_ok" if ok else "interactions_error"] += 1

    # ------------------------------------------------------------------
    def _in_window(self, start: float, end: float):
        return [s for s in self.samples if start <= s[1] < end]

    def wips_series(self, start: float, end: float,
                    bucket_s: float = BUCKET_S) -> List[Tuple[float, float]]:
        """The paper's WIPS histogram: (bucket start, WIPS) points."""
        buckets: Dict[int, int] = {}
        for _sent, done, _i, ok, _e in self._in_window(start, end):
            if ok:
                key = int((done - start) // bucket_s)
                buckets[key] = buckets.get(key, 0) + 1
        n_buckets = max(1, int(math.ceil((end - start) / bucket_s)))
        series = []
        for k in range(n_buckets):
            # A trailing partial bucket is normalized by its actual span,
            # so short windows (e.g. a recovery period) are not deflated.
            span = min(bucket_s, end - start - k * bucket_s)
            if span <= 0:
                continue
            series.append((start + k * bucket_s, buckets.get(k, 0) / span))
        return series

    def window(self, start: float, end: float,
               bucket_s: float = BUCKET_S) -> WindowStats:
        samples = self._in_window(start, end)
        completed = len(samples)
        errors = sum(1 for s in samples if not s[3])
        latencies = sorted(s[1] - s[0] for s in samples if s[3])
        mean_wirt = sum(latencies) / len(latencies) if latencies else 0.0
        p90 = latencies[int(0.9 * (len(latencies) - 1))] if latencies else 0.0
        series = [w for _t, w in self.wips_series(start, end, bucket_s)]
        awips = sum(series) / len(series) if series else 0.0
        cv = _coefficient_of_variation(series)
        return WindowStats(start, end, completed, errors, awips, cv,
                           mean_wirt, p90)

    # ------------------------------------------------------------------
    # dependability measures
    # ------------------------------------------------------------------
    def accuracy_pct(self, start: float, end: float) -> float:
        return self.window(start, end).accuracy_pct

    def availability(self, start: float, end: float,
                     bucket_s: float = BUCKET_S) -> float:
        """Fraction of buckets in which the application delivered service."""
        series = self.wips_series(start, end, bucket_s)
        if not series:
            return 0.0
        serving = sum(1 for _t, wips in series if wips > 0.0)
        return serving / len(series)

    def wirt_compliance(self, start: float, end: float,
                        constraints: Optional[Dict[Interaction, float]] = None
                        ) -> Dict[Interaction, float]:
        """Per-interaction fraction completing within its TPC-W constraint.

        The spec requires >= 0.90 for every interaction type; the harness
        reports this next to the dependability measures.
        """
        constraints = constraints or WIRT_CONSTRAINTS_S
        per_kind: Dict[Interaction, List[float]] = {}
        for sent, done, interaction, ok, _e in self._in_window(start, end):
            if ok:
                per_kind.setdefault(interaction, []).append(done - sent)
        compliance: Dict[Interaction, float] = {}
        for interaction, latencies in per_kind.items():
            limit = constraints[interaction]
            within = sum(1 for latency in latencies if latency <= limit)
            compliance[interaction] = within / len(latencies)
        return compliance

    def error_counts(self, start: float, end: float) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _sent, _done, _i, ok, error_kind in self._in_window(start, end):
            if not ok:
                counts[error_kind] = counts.get(error_kind, 0) + 1
        return counts


def performability_pv(failure_free: WindowStats,
                      recovery: WindowStats) -> float:
    """The paper's PV column: recovery AWIPS relative to failure-free
    AWIPS, as a signed percentage (negative = performance drop)."""
    if failure_free.awips == 0:
        return 0.0
    return 100.0 * (recovery.awips - failure_free.awips) / failure_free.awips


def autonomy(interventions: int, faults: int) -> float:
    """Human interventions per injected fault (0.0 = total autonomy)."""
    if faults == 0:
        return 0.0
    return interventions / faults


def _coefficient_of_variation(values: List[float]) -> float:
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean
