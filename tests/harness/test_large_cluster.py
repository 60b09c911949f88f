"""Smoke tests at the paper's largest deployment sizes."""

import pytest

from repro.harness.cluster import RobustStoreCluster
from repro.harness.experiment import Experiment

from tests.harness.helpers import tiny_config


def test_twelve_replicas_serve_and_converge():
    config = tiny_config(replicas=12, offered_wips=1200.0, seed=5)
    cluster = RobustStoreCluster(config)
    cluster.run_until(config.scale.total_s)
    stats = cluster.collector.window(config.scale.measure_start,
                                     config.scale.measure_end)
    assert stats.completed > 100
    assert stats.errors == 0
    orders = {len(rt.app.state.orders) for rt in cluster.runtimes if rt}
    assert len(orders) == 1


def test_twelve_replicas_fast_quorum_arithmetic():
    config = tiny_config(replicas=12, offered_wips=600.0, seed=5)
    cluster = RobustStoreCluster(config)
    cluster.run(2.0)
    engine = cluster.runtimes[0].engine
    assert engine.fq == 9   # ceil(3*12/4)
    assert engine.cq == 7   # floor(12/2)+1
    assert engine.mode == "fast"


def test_two_crashes_on_eight_replicas_with_ordering_profile():
    config = tiny_config(replicas=8, profile="ordering", seed=5)
    result = Experiment.from_config(config).two_crashes().run()
    assert result.faults_injected == 2
    assert result.availability() == 1.0
    assert all(r["ready_at"] is not None for r in result.recoveries)
    assert result.autonomy_ratio() == 0.0


def test_four_replica_minimum_deployment():
    config = tiny_config(replicas=4, offered_wips=400.0, seed=5)
    result = Experiment.from_config(config).baseline().run()
    assert result.whole_window().completed > 100
    assert result.accuracy_pct() == 100.0
