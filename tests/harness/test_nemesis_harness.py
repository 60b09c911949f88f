"""End-to-end: the full RobustStore deployment under a nemesis schedule.

Exercises the harness plumbing (``Experiment.nemesis()`` +
``safety_tracing``) against the real bookstore stack -- proxy, RBEs,
Treplica, watchdogs -- rather than the bare lock-service fixture.
"""

import json

import pytest

from repro.harness.cli import main
from tests.harness.helpers import tiny_config, tiny_experiment


@pytest.mark.nemesis
def test_baseline_with_nemesis_stays_safe_and_serves():
    result = tiny_experiment(replicas=3, seed=7, safety_tracing=True).nemesis(
        "drop@60-240:p=0.1,dup@60-240:p=0.05,delay@60-240:p=0.1:m=0.01"
    ).baseline().run()
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
    result = tiny_experiment(replicas=3, seed=7, safety_tracing=True).nemesis(
        "oneway@60-240:0>1").baseline().run()
    assert result.safety_violations == []
    assert result.whole_window().completed > 0


@pytest.mark.slow
def test_crash_plus_nemesis_recovers_safely():
    """The paper's one-crash experiment with message faults layered on
    top: recovery must still complete and the trace must stay safe."""
    result = tiny_experiment(replicas=3, seed=11, safety_tracing=True).nemesis(
        "drop@30-300:p=0.05").one_crash(replica=1).run()
    assert result.faults_injected == 1
    assert result.safety_violations == []
    assert result.recovery_times()  # the crashed replica came back


def test_nemesis_crash_is_injected_and_counted(tmp_path, capsys):
    """A crash given to --nemesis is one more event of the run's
    faultload: injected, counted, and the start of the first outage."""
    result = tiny_experiment(replicas=3).nemesis("crash@240:1").baseline().run()
    assert result.faults_injected == 1 and result.interventions == 0
    assert result.first_crash_at == result.config.scale.t(240.0)
    out = tmp_path / "run.json"
    assert main(["run", "baseline", "--scale", "tiny", "--replicas", "3",
                 "--nemesis", "crash@240:1", "--json", str(out)]) == 0
    assert "1 / 0" in capsys.readouterr().out
    assert json.loads(out.read_text())["faults_injected"] == 1


def test_safety_checker_requires_tracing():
    from repro.harness.cluster import RobustStoreCluster
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    with pytest.raises(RuntimeError):
        cluster.safety_checker()


def test_custom_faultload_scales_nemesis_windows():
    """``.faults()`` compresses window ends like start times: on the tiny
    scale (time_div=20) a [60, 240) paper window becomes [3, 12)."""
    result = tiny_experiment(replicas=3, seed=7, safety_tracing=True).faults(
        "drop@60-240:p=0.15").run()
    assert result.nemesis.dropped > 0
    assert result.safety_violations == []


def test_healed_windows_leave_the_nemeses_empty():
    """The injector removes each window when it heals: once the run is
    past them, neither nemesis holds a dead window, and the switch is
    back on its no-nemesis path."""
    result = tiny_experiment(replicas=3).nemesis(
        "drop@60-120:p=0.1,fsynclie@60-120:1").baseline().keep_cluster().run()
    cluster = result.cluster
    assert result.nemesis.dropped > 0
    assert cluster.storage_stats()["lied_writes"] > 0
    assert cluster.network.nemesis.windows == []
    assert cluster.storage_nemesis.windows == []
