"""Timelines and the sim-time sampler."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import KIND_COUNTER, KIND_GAUGE, Timeline, TimelineSampler
from repro.sim.core import Simulator


def test_record_points_and_kinds():
    timeline = Timeline(tick_s=1.0)
    timeline.record("a", 0.0, 1.0, kind=KIND_COUNTER)
    timeline.record("a", 1.0, 3.0, kind=KIND_COUNTER)
    timeline.record("b", 0.0, 7.0)
    assert timeline.names() == ["a", "b"]
    assert timeline.kind("a") == KIND_COUNTER
    assert timeline.kind("b") == KIND_GAUGE
    assert timeline.points("a") == [(0.0, 1.0), (1.0, 3.0)]


def test_rate_derives_per_second_deltas():
    timeline = Timeline(tick_s=2.0)
    for t, value in [(0.0, 0.0), (2.0, 10.0), (4.0, 10.0), (6.0, 40.0)]:
        timeline.record("ops", t, value, kind=KIND_COUNTER)
    assert timeline.rate("ops") == [(2.0, 5.0), (4.0, 0.0), (6.0, 15.0)]


def test_rate_refuses_gauges():
    timeline = Timeline(tick_s=1.0)
    timeline.record("depth", 0.0, 3.0, kind=KIND_GAUGE)
    with pytest.raises(ValueError, match="only counters have rates"):
        timeline.rate("depth")


def test_dict_round_trip():
    timeline = Timeline(tick_s=0.5)
    timeline.record("x", 0.0, 1.5, kind=KIND_COUNTER)
    timeline.record("x", 0.5, 2.5, kind=KIND_COUNTER)
    timeline.record("y", 0.5, 9.0)
    clone = Timeline.from_dict(timeline.to_dict())
    assert clone.tick_s == 0.5
    assert clone.names() == timeline.names()
    assert clone.kind("x") == KIND_COUNTER
    assert clone.points("x") == timeline.points("x")
    assert clone.points("y") == timeline.points("y")


def test_csv_is_tick_aligned_with_blank_gaps():
    timeline = Timeline(tick_s=1.0)
    timeline.record("a", 0.0, 1.0)
    timeline.record("a", 1.0, 2.0)
    timeline.record("b", 1.0, 5.0)  # b has no sample at t=0
    lines = timeline.to_csv().strip().split("\n")
    assert lines[0] == "t,a,b"
    assert lines[1] == "0,1,"
    assert lines[2] == "1,2,5"


def test_sampler_samples_registry_on_ticks():
    sim = Simulator()
    registry = MetricsRegistry()
    stats = {"ops": 0}
    registry.register_counts(stats, {"ops": "ops"})
    registry.gauge("depth", fn=lambda: sim.now)
    latency = registry.histogram("latency")

    def workload():
        while True:
            stats["ops"] += 2
            latency.observe(0.01)
            yield sim.timeout(1.0)

    sim.spawn(workload(), name="workload")
    sampler = TimelineSampler(sim, registry, tick_s=2.0)
    sampler.start()
    sim.run(until=6.0)
    timeline = sampler.timeline
    # counter is cumulative, sampled at t=0,2,4,6 (the sampler's tick was
    # scheduled first, so it runs before the same-instant increment)
    assert timeline.points("ops") == [(0.0, 2.0), (2.0, 4.0),
                                      (4.0, 8.0), (6.0, 12.0)]
    assert timeline.kind("ops") == KIND_COUNTER
    # gauge reads the live value at each tick
    assert timeline.points("depth") == [(0.0, 0.0), (2.0, 2.0),
                                        (4.0, 4.0), (6.0, 6.0)]
    # histograms flatten to .count + running percentiles
    assert timeline.kind("latency.count") == KIND_COUNTER
    assert timeline.points("latency.count")[-1] == (6.0, 6.0)
    assert timeline.kind("latency.p95") == KIND_GAUGE
    assert timeline.points("latency.p95")[-1][1] == pytest.approx(0.01, rel=0.1)


def test_flush_records_trailing_partial_tick():
    """Regression: a run length that is not a tick multiple used to drop
    the final partial tick's counter growth from the timeline."""
    sim = Simulator()
    registry = MetricsRegistry()
    stats = {"ops": 0}
    registry.register_counts(stats, {"ops": "ops"})

    def workload():
        while True:
            stats["ops"] += 1
            yield sim.timeout(1.0)

    sim.spawn(workload(), name="workload")
    sampler = TimelineSampler(sim, registry, tick_s=2.0)
    sampler.start()
    sim.run(until=5.0)   # ticks land at 0, 2, 4 -- 5.0 is mid-tick
    sampler.flush()
    points = sampler.timeline.points("ops")
    assert points[-1] == (5.0, 6.0)   # the t=5 increment is captured
    assert [t for t, _v in points] == [0.0, 2.0, 4.0, 5.0]


def test_flush_is_noop_on_tick_boundary():
    sim = Simulator()
    registry = MetricsRegistry()
    registry.register_counts({"ops": 1}, {"ops": "ops"})
    sampler = TimelineSampler(sim, registry, tick_s=2.0)
    sampler.start()
    sim.run(until=4.0)   # tick lands exactly at 4.0
    before = list(sampler.timeline.points("ops"))
    sampler.flush()
    assert sampler.timeline.points("ops") == before
    # and flushing twice mid-tick adds exactly one sample
    sim.run(until=5.0)
    sampler.flush()
    sampler.flush()
    assert [t for t, _v in sampler.timeline.points("ops")] == [
        0.0, 2.0, 4.0, 5.0]
