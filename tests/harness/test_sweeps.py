"""The sweep API over miniature deployments."""

import math

import pytest

from repro.harness.config import ClusterConfig
from repro.harness.sweeps import (
    RecoveryPoint,
    ThroughputPoint,
    recovery_sweep,
    scaleup_slope_pct,
    scaleup_sweep,
    speedup_sweep,
    speedups,
    wips_wirt_r2,
)

from tests.harness.helpers import tiny_scale


def test_speedup_sweep_returns_typed_points():
    base = ClusterConfig(profile="shopping", scale=tiny_scale(), seed=3)
    points = speedup_sweep(base, replicas_list=(3, 5))
    assert [p.replicas for p in points] == [3, 5]
    assert all(isinstance(p, ThroughputPoint) for p in points)
    assert all(p.awips > 0 for p in points)
    assert points[0].label == "shopping 3R"


def test_speedups_are_relative_to_first_point():
    points = [ThroughputPoint("x", 4, 100.0, 10.0, 0.0),
              ThroughputPoint("x", 8, 150.0, 12.0, 0.0)]
    assert speedups(points) == [1.0, 1.5]
    assert speedups([]) == []


def test_scaleup_sweep_tracks_offered_load():
    base = ClusterConfig(profile="browsing", offered_wips=400.0,
                         scale=tiny_scale(), seed=3)
    points = scaleup_sweep(base, replicas_list=(3, 5))
    offered_effective = 400.0 / tiny_scale().load_div
    for point in points:
        assert point.awips == pytest.approx(offered_effective, rel=0.25)


def test_scaleup_slope_and_r2_helpers():
    flat = [ThroughputPoint("x", n, 100.0, 10.0 + n, 0.0) for n in (4, 8, 12)]
    assert scaleup_slope_pct(flat) == pytest.approx(0.0)
    assert scaleup_slope_pct(flat[:1]) == 0.0
    rising = [ThroughputPoint("x", n, 100.0 + n, 10.0 + 2 * n, 0.0)
              for n in (4, 8, 12)]
    assert wips_wirt_r2(rising) == pytest.approx(1.0)


def test_recovery_sweep_grows_with_state_size():
    base = ClusterConfig(profile="shopping", replicas=5,
                         scale=tiny_scale(), seed=3)
    points = recovery_sweep(base, ebs_list=(30, 70))
    assert [p.num_ebs for p in points] == [30, 70]
    assert all(isinstance(p, RecoveryPoint) for p in points)
    assert all(not math.isnan(p.recovery_s) for p in points)
    assert points[1].recovery_s > points[0].recovery_s
    assert all(p.accuracy_pct > 99.0 for p in points)
