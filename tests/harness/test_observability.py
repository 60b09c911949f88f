"""End-to-end observability: timelines, metrics, and the kernel profile.

The acceptance check of the subsystem: a one-crash run's WIPS series,
read straight off the sampled timeline, visibly dips after the crash and
recovers by the end of the run.
"""

import statistics

import pytest

from repro.harness.experiment import Experiment
from repro.obs.timeline import KIND_COUNTER, Timeline

from tests.harness.helpers import tiny_config, tiny_experiment


@pytest.fixture(scope="module")
def one_crash_result():
    return (Experiment.from_config(tiny_config())
            .one_crash()
            .observe(tick_s=5.0)
            .run())


def test_wips_timeline_dips_at_the_crash_and_recovers(one_crash_result):
    result = one_crash_result
    crash_at = result.first_crash_at
    assert crash_at is not None
    rate = result.timeline.rate("web.interactions_ok")
    warmup = result.measure_start
    pre = [wips for t, wips in rate if warmup <= t <= crash_at]
    dip_window = [wips for t, wips in rate if crash_at < t <= crash_at + 5.0]
    tail = [wips for t, wips in rate if t >= result.measure_end - 2.0]
    pre_mean = statistics.mean(pre)
    assert pre_mean > 0
    # the crash visibly dents throughput...
    assert min(dip_window) < 0.85 * pre_mean
    # ...and the cluster recovers it by the end of the run
    assert statistics.mean(tail) > 0.9 * pre_mean


def test_timeline_covers_every_layer(one_crash_result):
    names = set(one_crash_result.timeline.names())
    assert {"paxos.proposals", "paxos.decisions",
            "paxos.batches_flushed"} <= names
    assert {"treplica.applied_commands", "treplica.queue_depth",
            "treplica.checkpoints"} <= names
    assert {"sim.net_inflight_messages", "sim.disk_queue_depth"} <= names
    assert {"web.proxy_forwarded", "web.interactions_ok",
            "web.wirt_s.p95"} <= names


def test_crash_run_counts_reroutes_and_gap_fills(one_crash_result):
    counters = one_crash_result.metrics["counters"]
    assert counters["web.interactions_ok"] > 100
    assert counters["paxos.decisions"] > 0
    # failover happened: the proxy saw the dead backend
    assert (counters["web.proxy_reroutes"] > 0
            or counters["web.proxy_broken_connections"] > 0)
    histograms = one_crash_result.metrics["histograms"]
    assert histograms["web.wirt_s"]["count"] == counters["web.interactions_ok"]
    assert 0.0 < histograms["web.wirt_s"]["p95"] < 10.0


def test_checkpoint_encodes_are_counted_apart_from_checkpoints(
        one_crash_result):
    counters = one_crash_result.metrics["counters"]
    # Every replica boots from the shared genesis snapshot and journals on
    # top of them; the recovered incarnation inherits the base of the
    # record it loaded, and nothing in a tiny run grows a journal to the
    # size of the state.  No checkpoint encodes anything.
    assert counters["treplica.snapshot_encodes"] == 0
    assert counters["treplica.checkpoints"] > 20
    assert one_crash_result.metrics["gauges"]["treplica.journal_actions"] > 0
    assert "treplica.journal_actions" in one_crash_result.timeline.names()


def test_delivered_uids_gauge_grows_with_the_commands(one_crash_result):
    # The learner's exactly-once memory holds one entry per command ever
    # decided or restored, so the gauge climbs through the whole run.
    values = [value for _t, value
              in one_crash_result.timeline.points("paxos.delivered_uids")]
    assert values[-1] > values[len(values) // 2] > 0
    assert one_crash_result.metrics["gauges"]["paxos.delivered_uids"] > 0


def test_kernel_profile_attributes_wall_clock_to_layers(one_crash_result):
    profile = one_crash_result.kernel_profile
    assert profile["events"] > 10_000
    assert profile["events_per_sim_s"] > 0
    assert {"sim", "paxos", "web"} <= set(profile["by_category"])
    for stats in profile["by_category"].values():
        assert stats["events"] > 0
        assert stats["wall_us_per_event"] >= 0.0


def test_process_resumes_are_attributed_to_the_owning_layer():
    # ``Process._resume`` lives in repro.sim.core, but the wall clock it
    # burns is the generator's: before the fix ``sim`` read 0.73-0.94 of
    # every run and the process-owning layers shared the rest.
    result = (Experiment.from_config(tiny_config())
              .load("open", wips=400.0, population=10_000)
              .observe(tick_s=5.0)
              .run())
    profile = result.kernel_profile
    rows = profile["by_category"]
    assert rows["sim"]["wall_s"] / profile["wall_s"] < 0.73
    for layer in ("paxos", "treplica", "web", "load"):
        assert rows[layer]["wall_s"] > 0.0, layer
    assert sum(row["wall_s"] for row in rows.values()) \
        == pytest.approx(profile["wall_s"], abs=1e-5)
    assert sum(row["events"] for row in rows.values()) == profile["events"]


def test_timeline_round_trips_through_result_dict(one_crash_result):
    data = one_crash_result.to_dict()
    assert data["kernel_profile"]["events"] > 0
    assert data["metrics"]["counters"]["web.interactions_ok"] > 0
    restored = Timeline.from_dict(data["timeline"])
    assert restored.names() == one_crash_result.timeline.names()
    assert (restored.points("web.interactions_ok")
            == one_crash_result.timeline.points("web.interactions_ok"))


def test_timeline_exports_csv(one_crash_result):
    csv = one_crash_result.timeline.to_csv()
    header = csv.splitlines()[0].split(",")
    assert header[0] == "t"
    assert "web.interactions_ok" in header
    assert len(csv.splitlines()) > 50  # 30 s run at 0.25 s ticks


def test_observed_runs_stay_deterministic(one_crash_result):
    """Same seed, same timeline -- only the kernel profile's wall-clock
    fields (host measurements, not sim state) may vary between runs."""
    rerun = (Experiment.from_config(tiny_config())
             .one_crash()
             .observe(tick_s=5.0)
             .run())
    assert rerun.timeline.to_dict() == one_crash_result.timeline.to_dict()
    assert rerun.metrics == one_crash_result.metrics
    first = dict(one_crash_result.to_dict(), kernel_profile=None)
    second = dict(rerun.to_dict(), kernel_profile=None)
    assert first == second


def test_observability_off_leaves_result_clean():
    result = Experiment.from_config(tiny_config(
        replicas=3, offered_wips=400.0)).baseline().run()
    assert result.timeline is None
    assert result.kernel_profile is None
    assert result.metrics is None
    data = result.to_dict()
    assert data["timeline"] is None and data["metrics"] is None


@pytest.mark.parametrize("shards", [1, 2])
def test_counts_survive_incarnations(shards):
    """A counter reads the stats of every incarnation that ever
    registered, so a crash and reboot never set a series back."""
    result = (tiny_experiment(replicas=3).shards(shards)
              .faults("crash@240:1" if shards == 1 else "crash@240:1.1")
              .observe(tick_s=5.0).keep_cluster().run())
    cluster = result.cluster
    assert any(node.incarnation > 0 for node in cluster.replica_nodes)
    assert all(runtime.ready for runtime in cluster.runtimes)
    timeline = result.timeline
    for name in timeline.names():
        if timeline.kind(name) == KIND_COUNTER:
            values = [value for _t, value in timeline.points(name)]
            assert values == sorted(values), name
    counters = result.metrics["counters"]
    live_decisions = sum(runtime.engine.stats["decisions"]
                         for runtime in cluster.runtimes)
    live_applied = sum(runtime.stats["executed"]
                       for runtime in cluster.runtimes)
    assert counters["paxos.decisions"] > live_decisions
    assert counters["treplica.applied_commands"] > live_applied
