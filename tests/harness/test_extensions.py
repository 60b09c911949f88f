"""Extension experiments: sequential crashes and network partitions."""

import pytest

from tests.harness.helpers import tiny_config, tiny_experiment


def test_sequential_crashes_both_recover():
    result = tiny_experiment().sequential_crashes().run()
    assert result.faults_injected == 2
    assert len(result.recoveries) == 2
    assert all(r["ready_at"] is not None for r in result.recoveries)
    # Crashes do not overlap: the first recovery completes before the
    # second crash fires.
    first_ready = min(r["ready_at"] for r in result.recoveries)
    second_crash = max(r["crashed_at"] for r in result.recoveries)
    assert first_ready < second_crash
    assert result.accuracy_pct() > 99.0
    assert result.availability() == 1.0


def test_partition_blocks_then_heals():
    # 300 s of paper timeline -> 15 s compressed: longer than the client
    # timeout, so blocked updates on the isolated replica become visible.
    result = tiny_experiment().partition(replica=2, duration_s=300.0).run()
    assert result.faults_injected == 0  # no process died
    assert result.recoveries == []     # nothing rebooted
    # The system as a whole keeps serving throughout.
    assert result.availability() == 1.0
    # Clients hashed to the isolated replica saw their updates block
    # until the client timeout: accuracy dips below the crash faultloads'
    # (this scenario is strictly harsher than a clean crash, because the
    # proxy cannot tell the replica is useless -- its probes still pass).
    assert result.accuracy_pct() < 99.99
    assert result.accuracy_pct() > 80.0


def test_partitioned_replica_state_converges_after_heal():
    from repro.faults.faultload import FaultEvent, Faultload, FaultInjector
    from repro.harness.cluster import RobustStoreCluster
    config = tiny_config()
    cluster = RobustStoreCluster(config)
    scale = config.scale
    injector = FaultInjector(cluster.sim, cluster, Faultload("p", (
        FaultEvent(scale.t(120.0), "partition", 1,
                   until=scale.t(240.0)),)))
    injector.arm()
    cluster.run_until(scale.total_s)
    orders = {i: len(rt.app.state.orders)
              for i, rt in enumerate(cluster.runtimes) if rt}
    assert len(set(orders.values())) == 1, orders
