"""The metrics registry: counters, gauges, streaming histograms."""

import random

import pytest

from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    StreamingHistogram,
    registry_of,
)


def test_counter_reads_the_registered_counts():
    registry = MetricsRegistry()
    stats = {"proposals": 0, "shed": 0, "dropped": 0}
    registry.register_counts(stats, {"paxos.proposals": "proposals",
                                     "web.shed": ("shed", "dropped")})
    assert registry.counters() == {"paxos.proposals": 0, "web.shed": 0}
    stats["proposals"] += 4
    stats["shed"] += 1
    stats["dropped"] += 2
    # Read at call time, several keys summed into one counter.
    assert registry.counters() == {"paxos.proposals": 4, "web.shed": 3}


def test_counter_sums_every_registered_dict():
    """A rebooted component registers a fresh dict under the same name;
    the counter keeps the dead incarnation's counts."""
    registry = MetricsRegistry()
    first, second = {"decisions": 5}, {"decisions": 0}
    registry.register_counts(first, {"paxos.decisions": "decisions"})
    registry.register_counts(second, {"paxos.decisions": "decisions"})
    second["decisions"] += 2
    assert registry.counters() == {"paxos.decisions": 7}


def test_gauge_reads_its_reader_and_registers_once():
    registry = MetricsRegistry()
    depth = [3]
    gauge = registry.gauge("queue.depth", fn=lambda: depth[0])
    assert gauge.read() == 3.0
    depth[0] = 7
    assert gauge.read() == 7.0
    with pytest.raises(ValueError, match="queue.depth"):
        registry.gauge("queue.depth", fn=lambda: 0)


def test_gauge_reader_errors_surface():
    registry = MetricsRegistry()
    gauge = registry.gauge("flaky", fn=lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        gauge.read()
    with pytest.raises(ZeroDivisionError):
        registry.snapshot()


def test_snapshot_contains_all_instruments():
    registry = MetricsRegistry()
    registry.register_counts({"a": 2}, {"a": "a"})
    registry.gauge("b", fn=lambda: 5.0)
    registry.histogram("c").observe(1.0)
    snap = registry.snapshot()
    assert snap["counters"]["a"] == 2
    assert snap["gauges"]["b"] == 5.0
    assert snap["histograms"]["c"]["count"] == 1


def test_null_registry_is_inert_and_shared():
    assert isinstance(NULL_REGISTRY, NullRegistry)
    assert not NULL_REGISTRY.enabled
    NULL_REGISTRY.register_counts({"x": 1}, {"x": "x"})
    assert NULL_REGISTRY.counters() == {}
    histogram = NULL_REGISTRY.histogram("h")
    histogram.observe(1.0)
    assert NULL_REGISTRY.histogram("i") is histogram  # one shared null
    assert NULL_REGISTRY.snapshot() == {"counters": {}, "gauges": {},
                                        "histograms": {}}


def test_registry_of_falls_back_to_null():
    class FakeSim:
        pass

    sim = FakeSim()
    assert registry_of(sim) is NULL_REGISTRY
    sim.metrics = None
    assert registry_of(sim) is NULL_REGISTRY
    real = MetricsRegistry()
    sim.metrics = real
    assert registry_of(sim) is real


# ----------------------------------------------------------------------
# histogram quantiles vs sorted-sample ground truth
# ----------------------------------------------------------------------
def _ground_truth(samples, q):
    ordered = sorted(samples)
    index = max(0, min(len(ordered) - 1, int(q * len(ordered)) - 1))
    return ordered[index]


@pytest.mark.parametrize("distribution", ["uniform", "lognormal", "exponential"])
@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_quantiles_match_sorted_samples_within_bucket_error(distribution, q):
    rng = random.Random(2009)
    if distribution == "uniform":
        samples = [rng.uniform(0.001, 10.0) for _ in range(5000)]
    elif distribution == "lognormal":
        samples = [rng.lognormvariate(0.0, 1.5) for _ in range(5000)]
    else:
        samples = [rng.expovariate(1 / 0.05) for _ in range(5000)]
    growth = 2 ** 0.25
    hist = StreamingHistogram("t", lo=1e-6, hi=1e7, growth=growth)
    for sample in samples:
        hist.observe(sample)
    truth = _ground_truth(samples, q)
    # geometric-midpoint estimate: relative error bounded by the
    # half-bucket ratio sqrt(growth) - 1 (~9% at growth 2^0.25), plus a
    # little slack for the off-by-one between bucket rank and list rank
    estimate = hist.quantile(q)
    assert estimate == pytest.approx(truth, rel=(growth ** 0.5 - 1) + 0.02)


def test_quantile_clamped_to_observed_range():
    hist = StreamingHistogram("t")
    for value in (3.0, 4.0, 5.0):
        hist.observe(value)
    assert hist.quantile(0.0001) >= 3.0
    assert hist.quantile(0.9999) <= 5.0


def test_histogram_mean_and_summary():
    hist = StreamingHistogram("t")
    for value in (1.0, 2.0, 3.0):
        hist.observe(value)
    assert hist.mean == pytest.approx(2.0)
    summary = hist.summary()
    assert summary["count"] == 3
    assert summary["min"] == 1.0 and summary["max"] == 3.0
    assert set(summary) >= {"p50", "p95", "p99", "mean"}


def test_empty_histogram_quantile_is_zero():
    hist = StreamingHistogram("t")
    assert hist.quantile(0.5) == 0.0
    assert hist.count == 0


@pytest.mark.parametrize("q", [0.0, 0.001, 0.5, 0.99, 1.0])
def test_empty_histogram_every_quantile_defined(q):
    hist = StreamingHistogram("t")
    assert hist.quantile(q) == 0.0
    summary = hist.summary()
    assert summary["count"] == 0
    assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0
    assert summary["mean"] == 0.0


@pytest.mark.parametrize("q", [0.0, 0.001, 0.5, 0.99, 1.0])
@pytest.mark.parametrize("value", [1e-9, 0.125, 4096.0])
def test_single_sample_quantile_is_the_sample(value, q):
    # With one observation min == max == value, so the [min, max] clamp
    # collapses every quantile to the sample itself -- no bucket error.
    hist = StreamingHistogram("t")
    hist.observe(value)
    assert hist.quantile(q) == value
    summary = hist.summary()
    assert summary["min"] == summary["max"] == value
    assert summary["mean"] == pytest.approx(value)


# ----------------------------------------------------------------------
# Prometheus textfile exposition
# ----------------------------------------------------------------------
def test_to_prometheus_renders_counters_gauges_and_summaries():
    from repro.obs.registry import to_prometheus

    registry = MetricsRegistry()
    registry.register_counts({"ok": 42}, {"web.interactions_ok": "ok"})
    registry.gauge("proxy.active_backends", fn=lambda: 5.0)
    latency = registry.histogram("web.wirt_s")
    for value in (0.1, 0.2, 0.3):
        latency.observe(value)
    text = to_prometheus(registry.snapshot())
    lines = text.strip().split("\n")
    assert "# TYPE repro_web_interactions_ok counter" in lines
    assert "repro_web_interactions_ok 42" in lines
    assert "# TYPE repro_proxy_active_backends gauge" in lines
    assert "repro_proxy_active_backends 5" in lines
    assert "# TYPE repro_web_wirt_s summary" in lines
    assert any(l.startswith('repro_web_wirt_s{quantile="0.99"} ')
               for l in lines)
    assert "repro_web_wirt_s_count 3" in lines
    assert any(l.startswith("repro_web_wirt_s_sum 0.6") for l in lines)
    assert text.endswith("\n")


def test_to_prometheus_sanitizes_names_and_sorts():
    from repro.obs.registry import to_prometheus

    snapshot = {"counters": {"2fast.ops-total": 1, "a.b": 2}, "gauges": {},
                "histograms": {}}
    text = to_prometheus(snapshot)
    # leading digit is escaped, punctuation becomes underscores, and the
    # output is sorted by metric name (deterministic textfiles)
    assert text.index("repro__2fast_ops_total 1") < text.index("repro_a_b 2")


def test_to_prometheus_empty_snapshot_is_empty():
    from repro.obs.registry import to_prometheus

    assert to_prometheus({}) == ""


def test_to_prometheus_round_trips_a_loaded_snapshot():
    """The report --metrics-out path feeds a snapshot loaded back from
    JSON; rendering must not care about the round trip."""
    import json

    from repro.obs.registry import to_prometheus

    registry = MetricsRegistry()
    registry.register_counts({"proposals": 7},
                             {"paxos.proposals": "proposals"})
    live = registry.snapshot()
    loaded = json.loads(json.dumps(live))
    assert to_prometheus(loaded) == to_prometheus(live)
