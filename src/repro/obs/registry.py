"""The metrics registry: counters, gauges, and streaming histograms.

Instrumentation sites never test "is observability on?".  They ask
:func:`registry_of` for the simulator's registry and get either the real
:class:`MetricsRegistry` (attached by the harness as ``sim.metrics``) or
the module-level :data:`NULL_REGISTRY`, whose instruments are shared
no-op singletons.  A disabled hot path therefore costs one attribute
access and one empty method call -- cheap enough to leave compiled in
everywhere, mirroring how event-log sites (:mod:`repro.sim.trace`)
hold ``None`` when nothing observes.

Instruments are get-or-create by name, so components recreated on a
reboot (a new ``TreplicaRuntime``, a new ``PaxosEngine``) keep
accumulating into the same cluster-wide series instead of resetting it.

The histogram is *streaming*: it keeps exponential buckets plus exact
count/sum/min/max, so p50/p95/p99 come out with a bounded relative error
(the bucket growth factor) without storing any samples.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional


class Counter:
    """A monotonically increasing count (events, messages, retries)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time reading pulled from a callable at sample time.

    The callable is re-bindable (:meth:`bind`) because the object it
    reads may be recreated on a node reboot.  A reading that raises --
    e.g. the component is mid-crash -- comes back as 0.0 rather than
    killing the sampler.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._fn = fn

    def bind(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def read(self) -> float:
        if self._fn is None:
            return 0.0
        try:
            return float(self._fn())
        except Exception:  # noqa: BLE001 - the component may be dead
            return 0.0

    def __repr__(self) -> str:
        return f"<Gauge {self.name}>"


class StreamingHistogram:
    """Quantile sketch over exponential buckets.

    Bucket ``k`` (k >= 1) covers ``(lo * growth**(k-1), lo * growth**k]``;
    bucket 0 absorbs everything at or below ``lo``.  A quantile is the
    geometric midpoint of the bucket holding its rank, clamped to the
    exact observed min/max, so the relative error is at most
    ``sqrt(growth) - 1`` (about 9% at the default growth of 2**0.25).
    """

    __slots__ = ("name", "lo", "growth", "count", "total", "min", "max",
                 "_counts", "_inv_log_g", "_nbuckets",
                 "_memo_lo", "_memo_hi", "_memo_index")

    def __init__(self, name: str, lo: float = 1e-6, hi: float = 1e7,
                 growth: float = 2.0 ** 0.25):
        if lo <= 0 or hi <= lo or growth <= 1.0:
            raise ValueError(f"bad histogram bounds: lo={lo} hi={hi} "
                             f"growth={growth}")
        self.name = name
        self.lo = lo
        self.growth = growth
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._inv_log_g = 1.0 / math.log(growth)
        self._nbuckets = 2 + int(math.ceil(math.log(hi / lo)
                                           * self._inv_log_g))
        self._counts: List[int] = [0] * self._nbuckets
        # Last-bucket memo: consecutive samples tend to land in the same
        # bucket (latency distributions are peaky), so remember the last
        # bucket's (lo, hi] bounds and skip the log() when the next sample
        # falls inside them.  Initialised to an empty interval.
        self._memo_lo = math.inf
        self._memo_hi = -math.inf
        self._memo_index = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._memo_lo < value <= self._memo_hi:
            self._counts[self._memo_index] += 1
            return
        if value <= self.lo:
            index = 0
            self._memo_lo = -math.inf
            self._memo_hi = self.lo
        else:
            index = 1 + int(math.log(value / self.lo) * self._inv_log_g)
            if index >= self._nbuckets:
                index = self._nbuckets - 1
                self._memo_lo = self.lo * self.growth ** (index - 1)
                self._memo_hi = math.inf
            else:
                self._memo_lo = self.lo * self.growth ** (index - 1)
                self._memo_hi = self.lo * self.growth ** index
        self._memo_index = index
        self._counts[index] += 1

    # The WIRT hot path calls this alias; identical to :meth:`observe`.
    record = observe

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The value at rank ``ceil(q * count)``, 0.0 if empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index == 0:
                    estimate = self.lo
                else:
                    estimate = self.lo * self.growth ** (index - 0.5)
                return min(max(estimate, self.min), self.max)
        return self.max  # unreachable: cumulative ends at count

    def percentiles(self) -> Dict[str, float]:
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def summary(self) -> Dict[str, float]:
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            **self.percentiles(),
        }

    def __repr__(self) -> str:
        return f"<StreamingHistogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named instruments for one run, attached to the simulator.

    The harness installs it as ``sim.metrics`` *before* building any
    component, so construction-time ``registry_of(sim).counter(...)``
    calls all land here.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            gauge.bind(fn)
        return gauge

    def histogram(self, name: str, lo: float = 1e-6, hi: float = 1e7,
                  growth: float = 2.0 ** 0.25) -> StreamingHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = StreamingHistogram(
                name, lo=lo, hi=hi, growth=growth)
        return histogram

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, StreamingHistogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments' current values, JSON-serializable."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.read()
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self._histograms.items())},
        }


class _NullCounter:
    """Shared no-op counter handed out when observability is off."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"

    def bind(self, fn) -> None:
        pass

    def read(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    record = observe

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class NullRegistry:
    """Registry stand-in whose instruments are shared no-ops."""

    enabled = False
    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str, fn=None) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str, **_bounds) -> _NullHistogram:
        return self._histogram

    def counters(self) -> Dict[str, Counter]:
        return {}

    def gauges(self) -> Dict[str, Gauge]:
        return {}

    def histograms(self) -> Dict[str, StreamingHistogram]:
        return {}

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The registry every uninstrumented simulation sees.
NULL_REGISTRY = NullRegistry()


def registry_of(sim) -> MetricsRegistry:
    """The simulator's registry, or the no-op one if none is attached."""
    registry = getattr(sim, "metrics", None)
    return registry if registry is not None else NULL_REGISTRY


# ----------------------------------------------------------------------
# Prometheus textfile exposition
# ----------------------------------------------------------------------

def _prom_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name: dots and other punctuation in our
    hierarchical names become underscores (``paxos.mode_changes`` ->
    ``repro_paxos_mode_changes``)."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}{sanitized}"


def _prom_value(value: Any) -> str:
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number == math.inf:
        return "+Inf"
    if number == -math.inf:
        return "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def to_prometheus(snapshot: Dict[str, Any], prefix: str = "repro_") -> str:
    """Render a registry :meth:`~MetricsRegistry.snapshot` (live or
    loaded back from a result JSON) in the Prometheus text exposition
    format, suitable for the node-exporter textfile collector.

    Counters and gauges map directly; each histogram summary becomes a
    Prometheus *summary* -- ``{quantile="0.5|0.95|0.99"}`` series plus
    ``_sum``/``_count`` -- which is the honest rendering of a quantile
    sketch (no cumulative buckets to reconstruct).
    """
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                              ("0.99", "p99")):
            lines.append(f'{metric}{{quantile="{quantile}"}} '
                         f"{_prom_value(summary.get(key, 0.0))}")
        lines.append(f"{metric}_sum {_prom_value(summary.get('sum', 0.0))}")
        lines.append(f"{metric}_count "
                     f"{_prom_value(summary.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")
