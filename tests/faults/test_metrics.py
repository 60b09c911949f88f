"""Unit tests for the dependability metrics."""

import pytest

from repro.faults.metrics import MetricsCollector, autonomy, performability_pv
from repro.tpcw.workload import Interaction

HOME = Interaction.HOME


def fill(collector, start, end, rate, ok=True, latency=0.1, error_kind=""):
    t = start
    step = 1.0 / rate
    while t < end:
        collector.record(t - latency, t, HOME, ok, error_kind)
        t += step


def test_wips_series_buckets_counts():
    collector = MetricsCollector()
    fill(collector, 0.0, 10.0, rate=20.0)
    series = collector.wips_series(0.0, 10.0, bucket_s=5.0)
    assert len(series) == 2
    assert series[0][1] == pytest.approx(20.0, rel=0.05)
    assert series[1][1] == pytest.approx(20.0, rel=0.05)


def test_wips_series_partial_final_bucket_normalized():
    collector = MetricsCollector()
    fill(collector, 0.0, 7.0, rate=20.0)
    series = collector.wips_series(0.0, 7.0, bucket_s=5.0)
    assert len(series) == 2
    # The 2 s tail bucket must still read ~20 WIPS, not 8.
    assert series[1][1] == pytest.approx(20.0, rel=0.1)


def test_window_awips_and_cv():
    collector = MetricsCollector()
    fill(collector, 0.0, 20.0, rate=50.0)
    stats = collector.window(0.0, 20.0, bucket_s=5.0)
    assert stats.awips == pytest.approx(50.0, rel=0.05)
    assert stats.cv < 0.05
    assert stats.completed in (1000, 1001)  # boundary sample inclusive
    assert stats.errors == 0


def test_window_cv_detects_variability():
    collector = MetricsCollector()
    fill(collector, 0.0, 10.0, rate=80.0)
    fill(collector, 10.0, 20.0, rate=20.0)
    stats = collector.window(0.0, 20.0, bucket_s=5.0)
    assert stats.cv > 0.3


def test_accuracy_counts_errors():
    collector = MetricsCollector()
    fill(collector, 0.0, 10.0, rate=99.9)
    collector.record(5.0, 5.1, HOME, False, "connection reset by peer")
    stats = collector.window(0.0, 10.0)
    assert stats.errors == 1
    assert stats.accuracy_pct == pytest.approx(100.0 * (1 - 1 / 1000), abs=0.01)


def test_wirt_mean_and_p90():
    collector = MetricsCollector()
    for k in range(100):
        latency = 0.1 if k < 90 else 1.0
        collector.record(k * 0.01, k * 0.01 + latency, HOME, True)
    stats = collector.window(0.0, 10.0)
    assert 0.1 <= stats.mean_wirt_s <= 0.25
    assert stats.p90_wirt_s >= 0.1


def test_availability_full_when_every_bucket_serves():
    collector = MetricsCollector()
    fill(collector, 0.0, 50.0, rate=10.0)
    assert collector.availability(0.0, 50.0, bucket_s=5.0) == 1.0


def test_availability_partial_when_outage():
    collector = MetricsCollector()
    fill(collector, 0.0, 20.0, rate=10.0)
    fill(collector, 30.0, 50.0, rate=10.0)  # 10 s gap
    availability = collector.availability(0.0, 50.0, bucket_s=5.0)
    assert availability == pytest.approx(0.8)


def test_performability_pv_sign():
    collector = MetricsCollector()
    fill(collector, 0.0, 10.0, rate=100.0)
    fill(collector, 10.0, 20.0, rate=90.0)
    ff = collector.window(0.0, 10.0)
    rec = collector.window(10.0, 20.0)
    assert performability_pv(ff, rec) == pytest.approx(-10.0, abs=1.0)


def test_autonomy_ratio():
    assert autonomy(0, 2) == 0.0
    assert autonomy(1, 2) == 0.5
    assert autonomy(0, 0) == 0.0


def test_error_counts_by_kind():
    collector = MetricsCollector()
    collector.record(0.0, 0.1, HOME, False, "timeout")
    collector.record(0.0, 0.2, HOME, False, "timeout")
    collector.record(0.0, 0.3, HOME, False, "connection reset by peer")
    counts = collector.error_counts(0.0, 1.0)
    assert counts == {"timeout": 2, "connection reset by peer": 1}


def test_empty_window_is_benign():
    collector = MetricsCollector()
    stats = collector.window(0.0, 10.0)
    assert stats.awips == 0.0
    # No interaction answered, none failed: the ratio is undefined.
    assert stats.accuracy_pct is None
    assert stats.cv == 0.0


def test_wirt_compliance_per_interaction():
    from repro.faults.metrics import WIRT_CONSTRAINTS_S
    from repro.tpcw.workload import Interaction
    collector = MetricsCollector()
    # 9 fast + 1 slow HOME interactions: 90% within the 3 s constraint.
    for k in range(9):
        collector.record(k, k + 0.2, Interaction.HOME, True)
    collector.record(20.0, 25.0, Interaction.HOME, True)
    # Admin confirm: generous 20 s constraint.
    collector.record(0.0, 15.0, Interaction.ADMIN_CONFIRM, True)
    compliance = collector.wirt_compliance(0.0, 30.0)
    assert compliance[Interaction.HOME] == pytest.approx(0.9)
    assert compliance[Interaction.ADMIN_CONFIRM] == 1.0
    assert Interaction.BUY_CONFIRM not in compliance  # nothing recorded


def test_wirt_compliance_ignores_errors():
    from repro.tpcw.workload import Interaction
    collector = MetricsCollector()
    collector.record(0.0, 100.0, Interaction.HOME, False, "timeout")
    collector.record(0.0, 0.1, Interaction.HOME, True)
    compliance = collector.wirt_compliance(0.0, 200.0)
    assert compliance[Interaction.HOME] == 1.0


def test_constraints_cover_all_interactions():
    from repro.faults.metrics import WIRT_CONSTRAINTS_S
    from repro.tpcw.workload import Interaction
    assert set(WIRT_CONSTRAINTS_S) == set(Interaction)
