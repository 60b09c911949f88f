"""The metastability oracle: did the system recover when the fault did?

A transient fault is *supposed* to cost exactly its own duration.  The
oracle compares goodput (ok-interactions per second, the paper's WIPS)
after the trigger **heals** against the pre-trigger baseline and renders
one of three verdicts:

* ``metastable`` -- goodput stayed below ``collapse_ratio`` of baseline
  for the entire ``sustain_s`` after the heal: the failure outlived its
  trigger, the signature of a retry storm holding the system down;
* ``recovered`` -- goodput regained ``recover_ratio`` of baseline
  within ``grace_s`` of the heal;
* ``degraded`` -- neither: impaired but not pinned (e.g. a partial
  recovery still draining backlog at end of run).

All times are in the collector's clock (sim seconds); callers scale
paper-timeline constants with ``scale.t`` before judging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.metrics import BUCKET_S

METASTABLE = "metastable"
RECOVERED = "recovered"
DEGRADED = "degraded"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class MetastabilityReport:
    """One run's verdict with the evidence behind it."""

    verdict: str
    baseline_wips: float
    trigger_at: float
    healed_at: float
    collapse_ratio: float
    recover_ratio: float
    sustain_s: float
    grace_s: float
    post_heal_wips: float            # awips over (heal, heal + sustain)
    post_heal_ratio: float           # ... as a fraction of baseline
    recovered_at: Optional[float]    # first bucket back above recover_ratio
    series: Tuple[Tuple[float, float], ...]  # (bucket start, wips/baseline)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "baseline_wips": round(self.baseline_wips, 3),
            "trigger_at": round(self.trigger_at, 3),
            "healed_at": round(self.healed_at, 3),
            "collapse_ratio": self.collapse_ratio,
            "recover_ratio": self.recover_ratio,
            "sustain_s": round(self.sustain_s, 3),
            "grace_s": round(self.grace_s, 3),
            "post_heal_wips": round(self.post_heal_wips, 3),
            "post_heal_ratio": round(self.post_heal_ratio, 4),
            "recovered_at": (None if self.recovered_at is None
                             else round(self.recovered_at, 3)),
            "series": [(round(t, 3), round(r, 4)) for t, r in self.series],
        }


class MetastabilityOracle:
    """Judges goodput around a transient trigger's heal time."""

    def __init__(self, *, collapse_ratio: float = 0.5,
                 recover_ratio: float = 0.9, sustain_s: float = 60.0,
                 grace_s: float = 30.0, bucket_s: float = BUCKET_S):
        if not 0.0 < collapse_ratio < recover_ratio <= 1.0:
            raise ValueError(
                "need 0 < collapse_ratio < recover_ratio <= 1, got "
                f"{collapse_ratio} / {recover_ratio}")
        if sustain_s <= 0 or grace_s <= 0 or bucket_s <= 0:
            raise ValueError("sustain_s, grace_s, bucket_s must be positive")
        self.collapse_ratio = collapse_ratio
        self.recover_ratio = recover_ratio
        self.sustain_s = sustain_s
        self.grace_s = grace_s
        self.bucket_s = bucket_s

    def judge(self, collector, *, measure_start: float, trigger_at: float,
              healed_at: float, end: float) -> MetastabilityReport:
        """Render the verdict for one run.

        ``collector`` is a :class:`repro.faults.metrics.MetricsCollector`
        (anything with ``window``/``wips_series``); ``measure_start`` to
        ``trigger_at`` is the baseline window; ``end`` bounds the
        post-heal observation.
        """
        baseline = collector.window(measure_start, trigger_at,
                                    self.bucket_s).awips
        horizon = min(end, healed_at + max(self.sustain_s, self.grace_s))
        raw = collector.wips_series(healed_at, horizon, self.bucket_s)
        post = collector.window(healed_at,
                                min(end, healed_at + self.sustain_s),
                                self.bucket_s)
        if baseline <= 0.0:
            return self._report(UNDETERMINED, baseline, trigger_at,
                                healed_at, post.awips, 0.0, None, ())
        series = tuple((t, wips / baseline) for t, wips in raw)
        recovered_at = None
        for t, ratio in series:
            if t >= healed_at + self.grace_s:
                break
            if ratio >= self.recover_ratio:
                recovered_at = t
                break
        sustain_end = healed_at + self.sustain_s
        sustained = [r for t, r in series if t < sustain_end]
        fully_observed = end >= sustain_end and bool(sustained)
        if fully_observed and all(r < self.collapse_ratio
                                  for r in sustained):
            verdict = METASTABLE
        elif recovered_at is not None:
            verdict = RECOVERED
        else:
            verdict = DEGRADED
        return self._report(verdict, baseline, trigger_at, healed_at,
                            post.awips, post.awips / baseline,
                            recovered_at, series)

    def _report(self, verdict, baseline, trigger_at, healed_at,
                post_wips, post_ratio, recovered_at,
                series) -> MetastabilityReport:
        return MetastabilityReport(
            verdict=verdict, baseline_wips=baseline, trigger_at=trigger_at,
            healed_at=healed_at, collapse_ratio=self.collapse_ratio,
            recover_ratio=self.recover_ratio, sustain_s=self.sustain_s,
            grace_s=self.grace_s, post_heal_wips=post_wips,
            post_heal_ratio=post_ratio, recovered_at=recovered_at,
            series=series)
