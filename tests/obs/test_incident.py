"""The automated post-mortem builder: fig-5 agreement and determinism."""

import json

import pytest

from repro.harness.config import tiny_scale
from repro.harness.experiment import Experiment
from repro.obs.incident import (MissingRecorderError, build_incident_report,
                                render_markdown)


def one_crash_result(seed=2009):
    return (Experiment(scale=tiny_scale(), seed=seed)
            .load("closed", wips=1900.0)
            .trace()
            .record()
            .slo("wirt_p99<2s,error_rate<1%")
            .one_crash(replica=1)
            .run())


@pytest.fixture(scope="module")
def report_and_result():
    result = one_crash_result()
    return build_incident_report(result), result


def test_requires_a_flight_recorder():
    bare = (Experiment(scale=tiny_scale(), seed=2009)
            .load("closed", wips=1900.0)
            .one_crash(replica=1)
            .run())
    with pytest.raises(MissingRecorderError):
        build_incident_report(bare)


def test_one_crash_yields_exactly_one_incident(report_and_result):
    report, result = report_and_result
    assert len(report["incidents"]) == 1
    incident = report["incidents"][0]
    assert [t["fault"] for t in incident["triggers"]] == ["crash"]
    assert incident["triggers"][0]["target"] == "1"
    assert report["faults_injected"] == 1
    assert report["faultload"] == "one-crash"


def test_incident_window_is_the_recovery_window(report_and_result):
    """The acceptance bar: the post-mortem's numbers must agree exactly
    with the recovery-window / critical-path analytics."""
    report, result = report_and_result
    incident = report["incidents"][0]
    assert incident["start"] == result.first_crash_at
    assert incident["end"] == result.last_ready_at
    window = result.recovery_window()
    impact = incident["impact"]
    assert impact["awips"] == pytest.approx(window.awips, abs=1e-3)
    assert impact["completed"] == window.completed
    assert impact["errors"] == window.errors
    baseline = result.failure_free_window()
    dip = (baseline.awips - window.awips) * incident["duration_s"]
    assert impact["wips_dip_area"] == pytest.approx(dip, abs=1e-3)
    assert impact["lost_interactions"] == max(0, int(round(dip)))


def test_detection_lag_agrees_with_recovery_forensics(report_and_result):
    report, result = report_and_result
    detection = report["incidents"][0]["detection"]
    recovery = result.recoveries[0]
    watchdog_lag = recovery["rebooted_at"] - result.first_crash_at
    assert detection["signals"]["watchdog_reboot"] == \
        pytest.approx(watchdog_lag)
    assert detection["lag_s"] <= watchdog_lag
    assert detection["lag_s"] == pytest.approx(min(
        lag for lag in detection["signals"].values() if lag is not None))


def test_recovery_phases_reuse_the_trace_analytics(report_and_result):
    report, result = report_and_result
    from repro.obs.trace import recovery_phases
    expected = recovery_phases(result.spans, result.recoveries)
    assert report["incidents"][0]["recovery_phases"] == expected
    (row,) = expected
    assert row["node"] == "replica1"
    phases = row["phases"]
    total = sum(v for v in phases.values() if v is not None)
    assert total == pytest.approx(row["total_s"], abs=1e-6)


def test_timeline_tells_the_failover_story_in_order(report_and_result):
    report, _result = report_and_result
    timeline = report["incidents"][0]["timeline"]
    assert timeline["dropped"] == 0
    kinds = [event["kind"] for event in timeline["events"]]
    assert kinds[0] == "fault.inject"
    # (proxy.backend_up lands just *after* the incident closes -- the
    # window ends at last_ready_at, the next health probe follows it)
    for kind in ("watchdog.restart", "proxy.backend_down",
                 "recovery.checkpoint_loaded", "recovery.caught_up",
                 "recovery.ready"):
        assert kind in kinds
    times = [event["t"] for event in timeline["events"]]
    assert times == sorted(times)


def test_budget_burn_is_reported_per_objective(report_and_result):
    report, _result = report_and_result
    budget = report["incidents"][0]["budget"]
    assert [entry["objective"] for entry in budget] == [
        "wirt_p99<2s", "error_rate<1%"]
    for entry in budget:
        assert entry["total"] > 0
        assert entry["budget_burn"] >= 0.0
    assert report["slo"]["spec"] == "wirt_p99<2s,error_rate<1%"


def test_report_is_deterministic_across_identical_runs():
    first = build_incident_report(one_crash_result())
    second = build_incident_report(one_crash_result())
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


def test_markdown_renders_the_whole_story(report_and_result):
    report, _result = report_and_result
    text = render_markdown(report)
    assert text.startswith("# Post-mortem: faultload `one-crash`")
    assert "## SLO verdict:" in text
    assert "## Incident 1: crash at t=" in text
    assert "### Recovery phases" in text
    assert "### Failover timeline" in text
    assert "| replica1 |" in text
    assert "**fault.inject**" in text
    # rendering is pure: same report, same text
    assert render_markdown(report) == text


def test_baseline_report_has_no_incidents():
    result = (Experiment(scale=tiny_scale(), seed=2009)
              .load("closed", wips=1900.0)
              .record()
              .baseline()
              .run())
    report = build_incident_report(result)
    assert report["incidents"] == []
    assert "No incidents" in render_markdown(report)


def _flat_tiny():
    return (Experiment(tiny_scale(), replicas=3, num_ebs=30, seed=20090629)
            .load("closed", wips=400.0).record())


def test_a_heal_of_another_kind_does_not_stretch_the_incident():
    # The torn window on the crashed replica heals at t=400 (paper), long
    # after the replica is back: its heal ends no crash incident.
    result = _flat_tiny().faults("torn@200-400:1,crash@250:1").run()
    (incident,) = build_incident_report(result)["incidents"]
    assert incident["end"] == result.last_ready_at
    assert result.last_ready_at < result.config.scale.t(400.0)


def test_incident_timeline_shows_storage_window_heals():
    result = (_flat_tiny()
              .nemesis("drop@10-60:p=0.1,oneway@30-90:0>1,torn@100-300:1")
              .one_crash(1).run())
    (incident,) = build_incident_report(result)["incidents"]
    faults = [(event["t"], event["kind"], event["fault"])
              for event in incident["timeline"]["events"]
              if event["kind"].startswith("fault.")]
    scale = result.config.scale
    assert faults == [(result.first_crash_at, "fault.inject", "crash"),
                      (scale.t(300.0), "fault.heal", "torn")]
