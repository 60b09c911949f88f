"""End-to-end tests of the partitioned deployment (2 shards, tiny)."""

import pytest

from repro.harness.config import tiny_scale
from repro.harness.experiment import Experiment


def _experiment(wips=400.0, mix="shopping", **overrides):
    fields = dict(replicas=3, num_ebs=30, seed=11)
    fields.update(overrides)
    return Experiment(tiny_scale(), **fields).load("closed", wips=wips,
                                                   mix=mix)


@pytest.fixture(scope="module")
def baseline_result():
    return (_experiment().shards(2).observe().check_safety()
            .baseline().run())


def test_baseline_serves_the_load_with_zero_safety_violations(
        baseline_result):
    result = baseline_result
    assert result.safety_violations == []
    whole = result.whole_window()
    assert whole.completed > 200
    assert whole.errors == 0


def test_router_spreads_sessions_over_both_shards(baseline_result):
    counters = baseline_result.metrics["counters"]
    for shard in (0, 1):
        assert counters[f"shard.s{shard}.router_hits"] > 50
        assert counters[f"shard.s{shard}.interactions_ok"] > 50


def test_cross_shard_buy_confirms_commit_through_2pc(baseline_result):
    counters = baseline_result.metrics["counters"]
    assert counters["shard.txn_started"] > 0
    assert (counters["shard.txn_committed"]
            + counters["shard.txn_aborted"]) == counters["shard.txn_started"]


def test_timeline_has_per_shard_series(baseline_result):
    series = baseline_result.timeline.to_dict()["series"]
    for shard in (0, 1):
        assert f"shard.s{shard}.interactions_ok" in series
        assert f"shard.s{shard}.queue_depth" in series
        assert f"shard.s{shard}.live_replicas" in series


def test_crashing_one_shard_recovers_only_that_group():
    result = (_experiment().shards(2).check_safety()
              .faults("crash@240:1.2").run())
    assert result.safety_violations == []
    assert result.faults_injected == 1
    assert [r["shard"] for r in result.recoveries] == [1]
    recovery = result.recoveries[0]
    assert recovery["replica"] == 2
    assert recovery["ready_at"] is not None


def test_crash_during_cross_shard_load_stays_safe():
    # Crash a replica in each group mid-run under the ordering profile
    # (the write-heaviest mix, most 2PC traffic) and audit everything,
    # including transaction atomicity.
    result = (_experiment(mix="ordering").shards(2).check_safety()
              .faults("crash@240:0.1, crash@270:1.*").run())
    assert result.safety_violations == []
    assert result.faults_injected == 2
    assert {r["shard"] for r in result.recoveries} == {0, 1}
