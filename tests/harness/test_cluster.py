"""End-to-end deployment tests: the full Figure-2 cluster."""

import pytest

from repro.harness.cluster import RobustStoreCluster
from repro.harness.experiments import MissingWindowError

from tests.harness.helpers import tiny_config, tiny_experiment


def test_cluster_builds_figure2_topology():
    config = tiny_config()
    cluster = RobustStoreCluster(config)
    assert len(cluster.replica_nodes) == 5
    assert len(cluster.client_nodes) == 5
    assert cluster.proxy_node.name == "proxy"
    assert len(cluster.rbes) == config.num_rbes
    assert len(cluster.watchdogs) == 5


def test_rbe_count_follows_offered_load():
    config = tiny_config(offered_wips=800.0)
    # effective = 800 / 8 = 100 RBEs at 1 s think time
    assert config.num_rbes == 100


def test_baseline_run_delivers_interactions():
    result = tiny_experiment().baseline().run()
    stats = result.whole_window()
    assert stats.completed > 100
    assert stats.awips > 0
    assert result.faults_injected == 0
    with pytest.raises(MissingWindowError, match="no recovery window"):
        result.recovery_window()


def test_baseline_throughput_tracks_offered_load_when_unsaturated():
    low = tiny_experiment(offered_wips=400.0).baseline().run().whole_window()
    # 400/8 = 50 effective offered; delivered should be close.
    assert low.awips == pytest.approx(50.0, rel=0.2)


def test_profiles_have_expected_relative_throughput():
    results = {}
    for profile in ("browsing", "ordering"):
        results[profile] = (tiny_experiment(profile=profile)
                            .baseline().run().whole_window().awips)
    assert results["browsing"] > results["ordering"]


def test_replica_states_converge_after_run():
    config = tiny_config()
    cluster = RobustStoreCluster(config)
    cluster.run_until(config.scale.total_s)
    orders = {len(rt.app.state.orders) for rt in cluster.runtimes if rt}
    assert len(orders) == 1, "replicas ended with different order counts"
    for runtime in cluster.runtimes:
        if runtime is not None:
            runtime.app.state.check_invariants()


def test_one_crash_recovers_autonomously():
    result = tiny_experiment().one_crash().run()
    assert result.faults_injected == 1
    assert result.interventions == 0
    assert result.autonomy_ratio() == 0.0
    assert len(result.recoveries) == 1
    assert result.recoveries[0]["ready_at"] is not None
    assert result.availability() > 0.99


def test_one_crash_accuracy_stays_high():
    result = tiny_experiment().one_crash().run()
    assert result.accuracy_pct() > 99.5


def test_deterministic_across_identical_runs():
    a = tiny_experiment(seed=7).baseline().run().whole_window()
    b = tiny_experiment(seed=7).baseline().run().whole_window()
    assert a.completed == b.completed
    assert a.awips == b.awips


def test_different_seeds_differ():
    a = tiny_experiment(seed=7).baseline().run().whole_window()
    b = tiny_experiment(seed=8).baseline().run().whole_window()
    assert a.completed != b.completed
