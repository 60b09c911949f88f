"""Structured parameter sweeps: the evaluation section as a library.

Wraps the experiment drivers into the sweeps the paper's figures plot --
speedup (Figure 3), scaleup (Figure 4), recovery time vs state size
(Figure 6) -- returning typed points that callers can tabulate, plot, or
assert on.  ``repro sweep`` runs them, and so do the Figure 3 and 4
benchmarks.  Each sweep takes one base :class:`ClusterConfig` and
varies only its swept field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.harness.config import ClusterConfig
from repro.harness.experiment import Experiment
from repro.harness.report import linear_regression

#: Offered paper-WIPS per replica that keeps each speedup point mildly
#: saturated (load scaled with system size, like TPC scaling rules).
SPEEDUP_OFFERED_PER_REPLICA = 520.0


@dataclass(frozen=True)
class ThroughputPoint:
    """One (replicas, profile) measurement."""

    profile: str
    replicas: int
    awips: float
    mean_wirt_ms: float
    cv: float

    @property
    def label(self) -> str:
        return f"{self.profile} {self.replicas}R"


@dataclass(frozen=True)
class RecoveryPoint:
    """One (replicas, state size, profile) recovery measurement."""

    profile: str
    replicas: int
    num_ebs: int
    recovery_s: float
    pv_pct: float
    accuracy_pct: Optional[float]  # None: no interaction was measured


def _measure(config: ClusterConfig) -> ThroughputPoint:
    stats = Experiment.from_config(config).baseline().run().whole_window()
    return ThroughputPoint(config.profile, config.replicas, stats.awips,
                           stats.mean_wirt_s * 1000.0, stats.cv)


def speedup_sweep(base: ClusterConfig,
                  replicas_list: Sequence[int] = (4, 8, 12),
                  ) -> List[ThroughputPoint]:
    """Figure 3's sweep: saturated throughput at each replica count.

    Each point is ``base`` with its replica count and an offered load of
    :data:`SPEEDUP_OFFERED_PER_REPLICA` per replica; ``base.offered_wips``
    is not read."""
    return [_measure(replace(
                base, replicas=replicas,
                offered_wips=SPEEDUP_OFFERED_PER_REPLICA * replicas))
            for replicas in replicas_list]


def scaleup_sweep(base: ClusterConfig,
                  replicas_list: Sequence[int] = (4, 8, 12),
                  ) -> List[ThroughputPoint]:
    """Figure 4's sweep: ``base``'s fixed offered load, growing cluster."""
    return [_measure(replace(base, replicas=replicas))
            for replicas in replicas_list]


def recovery_sweep(base: ClusterConfig,
                   ebs_list: Sequence[int] = (30, 50, 70),
                   ) -> List[RecoveryPoint]:
    """Figure 6's sweep: one crash per state size; recovery durations."""
    points = []
    for num_ebs in ebs_list:
        result = Experiment.from_config(
            replace(base, num_ebs=num_ebs)).one_crash().run()
        times = result.recovery_times()
        points.append(RecoveryPoint(
            base.profile, base.replicas, num_ebs,
            recovery_s=times[0] if times else float("nan"),
            pv_pct=result.pv_pct() or 0.0,
            accuracy_pct=result.accuracy_pct()))
    return points


def speedups(points: Sequence[ThroughputPoint]) -> List[float]:
    """S_k relative to the first point (the paper's S_k definition)."""
    if not points:
        return []
    base = points[0].awips
    return [point.awips / base for point in points]


def scaleup_slope_pct(points: Sequence[ThroughputPoint]) -> float:
    """Per-replica WIPS change as % of the first point (Figure 4 fits)."""
    if len(points) < 2:
        return 0.0
    slope, _intercept, _r2 = linear_regression(
        [(point.replicas, point.awips) for point in points])
    return 100.0 * slope / points[0].awips


def wips_wirt_r2(points: Sequence[ThroughputPoint]) -> float:
    """The Section 5.3 correlation between WIPS and WIRT over a sweep."""
    _slope, _intercept, r2 = linear_regression(
        [(point.awips, point.mean_wirt_ms) for point in points])
    return r2
