"""End-to-end: the full RobustStore deployment under a nemesis schedule.

Exercises the harness plumbing (``ClusterConfig.nemesis_spec`` +
``safety_tracing``) against the real bookstore stack -- proxy, RBEs,
Treplica, watchdogs -- rather than the bare lock-service fixture.
"""

import pytest

from repro.harness.experiment import Experiment
from tests.harness.helpers import tiny_config


@pytest.mark.nemesis
def test_baseline_with_nemesis_stays_safe_and_serves():
    config = tiny_config(
        replicas=3, seed=7,
        nemesis_spec="drop@60-240:p=0.1,dup@60-240:p=0.05,"
                     "delay@60-240:p=0.1:m=0.01",
        safety_tracing=True)
    result = Experiment.from_config(config).baseline().run()
    assert result.nemesis.dropped > 0
    assert result.nemesis.duplicated > 0
    assert result.nemesis.delayed > 0
    assert result.safety_violations == []
    assert result.whole_window().completed > 0
    summary = result.to_dict()
    assert summary["safety_violations"] == []
    assert summary["nemesis"]["dropped"] == result.nemesis.dropped


@pytest.mark.nemesis
def test_oneway_partition_spec_cuts_and_heals():
    config = tiny_config(replicas=3, seed=7,
                         nemesis_spec="oneway@60-240:0>1",
                         safety_tracing=True)
    result = Experiment.from_config(config).baseline().run()
    assert result.safety_violations == []
    assert result.whole_window().completed > 0


@pytest.mark.slow
def test_crash_plus_nemesis_recovers_safely():
    """The paper's one-crash experiment with message faults layered on
    top: recovery must still complete and the trace must stay safe."""
    config = tiny_config(replicas=3, seed=11,
                         nemesis_spec="drop@30-300:p=0.05",
                         safety_tracing=True)
    result = Experiment.from_config(config).one_crash(replica=1).run()
    assert result.faults_injected == 1
    assert result.safety_violations == []
    assert result.recovery_times()  # the crashed replica came back


def test_nemesis_spec_rejects_replica_kinds():
    config = tiny_config(replicas=3, nemesis_spec="crash@60:1")
    with pytest.raises(ValueError):
        Experiment.from_config(config).baseline().run()


def test_safety_checker_requires_tracing():
    from repro.harness.cluster import RobustStoreCluster
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    with pytest.raises(RuntimeError):
        cluster.safety_checker()


def test_custom_faultload_scales_nemesis_windows():
    """``.faults()`` compresses window ends like start times: on the tiny
    scale (time_div=20) a [60, 240) paper window becomes [3, 12)."""
    config = tiny_config(replicas=3, seed=7, safety_tracing=True)
    result = Experiment.from_config(config).faults("drop@60-240:p=0.15").run()
    assert result.nemesis.dropped > 0
    assert result.safety_violations == []
