"""End-to-end geo deployments: determinism, DC failover, quorum shapes.

The acceptance scenario of the geo subsystem lives here: a 3-DC cluster
loses the leader's datacenter (``dcfail``), fails over with zero safety
violations and zero operator interventions, and the traced WIRT's
network bucket splits into intra-DC and WAN components that sum to the
original bucket exactly.
"""

import pytest

from repro.harness import Experiment, tiny_scale

pytestmark = pytest.mark.geo

DCS = ("dc0", "dc1", "dc2")


def geo_experiment(seed=3, replicas=5, wips=300, **geo_kwargs):
    return (Experiment(scale=tiny_scale(), replicas=replicas, seed=seed)
            .load("closed", wips=wips)
            .geo(dcs=DCS, **geo_kwargs))


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_geo_runs_are_deterministic_per_seed():
    """Same seed, same topology -> bit-for-bit identical delivery times
    (visible as identical per-bucket WIPS series and counters)."""
    first = geo_experiment().faults("dcfail@240:dc0").observe().run()
    second = geo_experiment().faults("dcfail@240:dc0").observe().run()
    assert first.wips_series() == second.wips_series()
    assert first.whole_window().completed == second.whole_window().completed
    assert first.metrics == second.metrics


def test_different_seeds_differ():
    first = geo_experiment(seed=3).baseline().run()
    second = geo_experiment(seed=4).baseline().run()
    assert first.wips_series() != second.wips_series()


# ----------------------------------------------------------------------
# the acceptance scenario: losing the leader's datacenter
# ----------------------------------------------------------------------
def test_dcfail_on_leader_dc_fails_over_safely():
    result = (geo_experiment()
              .faults("dcfail@240:dc0")
              .check_safety()
              .trace()
              .run())
    # Spread placement puts replicas 0 and 3 (and the initial leader) in
    # dc0; losing it leaves a 3/5 majority that must keep serving.
    assert result.faults_injected == 2
    assert result.safety_violations == []
    assert result.interventions == 0
    crash_at = result.first_crash_at
    assert crash_at is not None
    late = result.window_between(crash_at + result.config.scale.t(30.0),
                                 result.measure_end)
    assert late.completed > 0          # still serving after the DC died
    assert result.availability() > 0.95

    # The traced network bucket splits into intra-DC + WAN components
    # that sum to the original bucket *exactly* (not approximately).
    report = result.critical_path()
    assert report.interactions
    for entry in report.interactions:
        split = entry["network_split"]
        assert entry["buckets"]["network"] == split["intra"] + split["wan"]
    totals = report.network_split_totals()
    assert totals["wan"] > 0.0
    assert totals["intra"] > 0.0


def test_windowed_dcfail_revives_autonomously():
    result = (geo_experiment()
              .faults("dcfail@240-420:dc0")
              .check_safety()
              .run())
    assert result.safety_violations == []
    # The window re-arms the watchdogs: the revival is autonomous, so it
    # must not count as an operator intervention.
    assert result.interventions == 0
    assert result.recoveries  # the dc0 replicas came back


# ----------------------------------------------------------------------
# quorum shapes under a minority-DC partition
# ----------------------------------------------------------------------
def wanpart_window_wips(quorum, placement):
    result = (geo_experiment(placement=placement, quorum=quorum)
              .faults("wanpart@240-420:dc0|dc1,dc2")
              .check_safety()
              .run())
    assert result.safety_violations == []
    scale = result.config.scale
    window = result.window_between(scale.t(260.0), scale.t(400.0))
    return window.awips


def test_leader_local_quorum_survives_minority_partition():
    """With the leader DC isolated from the rest, a leader-local phase-2
    quorum keeps committing locally; a spread majority cannot reach
    quorum from the client side of the cut and throughput collapses."""
    majority = wanpart_window_wips("majority", "spread")
    leader_local = wanpart_window_wips("leader-local", "leader-local")
    assert leader_local > 2 * majority


def test_spread_majority_pays_the_wan_round_trip_on_every_commit():
    """Fault-free, same seed and load: a spread placement with classic
    majorities crosses the WAN on every commit, a leader-local placement
    with a leader-local phase-2 quorum hides it (the case for WAN-aware
    quorum shapes)."""
    def whole(placement, quorum):
        result = (geo_experiment(seed=2009, wips=1900, placement=placement,
                                 quorum=quorum)
                  .baseline()
                  .run())
        return result.whole_window()

    leader_local = whole("leader-local", "leader-local")
    spread = whole("spread", "majority")
    assert leader_local.errors == 0
    assert spread.errors == 0
    assert spread.mean_wirt_s > 1.5 * leader_local.mean_wirt_s


# ----------------------------------------------------------------------
# WAN degradation
# ----------------------------------------------------------------------
def test_wandegrade_slows_but_stays_safe():
    result = (geo_experiment()
              .faults("wandegrade@240-420:dc0>dc1,x10")
              .check_safety()
              .run())
    assert result.safety_violations == []
    assert result.whole_window().completed > 0


# ----------------------------------------------------------------------
# per-DC observability
# ----------------------------------------------------------------------
def test_per_dc_counters_attribute_interactions():
    result = geo_experiment().baseline().observe().run()
    counters = result.metrics["counters"]
    per_dc = {dc: counters[f"geo.{dc}.interactions_ok"] for dc in DCS}
    assert all(count > 0 for count in per_dc.values())
    assert sum(per_dc.values()) >= result.whole_window().completed
    gauges = result.metrics["gauges"]
    assert gauges["sim.net_wan_messages"] > 0
    # Spread placement over 5 replicas: 2 + 2 + 1 live replicas per DC.
    assert gauges["geo.dc0.live_replicas"] == 2.0
    assert gauges["geo.dc1.live_replicas"] == 2.0
    assert gauges["geo.dc2.live_replicas"] == 1.0


def test_non_geo_network_split_is_all_intra():
    result = (Experiment(scale=tiny_scale(), replicas=3, seed=7)
              .load("closed", wips=200)
              .baseline()
              .trace()
              .run())
    report = result.critical_path()
    totals = report.network_split_totals()
    assert totals["wan"] == 0.0
    assert totals["intra"] == pytest.approx(report.totals()["network"])
