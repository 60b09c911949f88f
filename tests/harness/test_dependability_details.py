"""Finer-grained dependability checks on full deployments."""

import json
import re

import pytest

from tests.harness.helpers import tiny_experiment


def test_crash_errors_are_broken_connections():
    """The paper's error model: the only client-visible errors of a clean
    crash are requests whose connection broke mid-flight."""
    result = tiny_experiment(seed=13).one_crash().run()
    errors = result.collector.error_counts(result.measure_start,
                                           result.measure_end)
    assert set(errors) <= {"connection reset by peer", "timeout"}
    # Broken connections dominate; 503s never reach the client because
    # refused connections are silently redispatched.
    assert "503 no backend" not in errors


def test_failure_free_run_has_zero_errors():
    result = tiny_experiment(seed=13).baseline().run()
    errors = result.collector.error_counts(result.measure_start,
                                           result.measure_end)
    assert errors == {}
    assert result.accuracy_pct() == 100.0


def test_wirt_compliance_in_a_real_run():
    """TPC-W's 90%-within-constraint rule holds for our operating point."""
    result = tiny_experiment(seed=13).baseline().run()
    compliance = result.collector.wirt_compliance(result.measure_start,
                                                  result.measure_end)
    assert compliance, "interactions must have been measured"
    for interaction, fraction in compliance.items():
        assert fraction >= 0.90, (interaction, fraction)


def test_recovery_event_bookkeeping_is_consistent():
    result = tiny_experiment(seed=13).one_crash().run()
    (event,) = result.recoveries
    assert event["node"] == f"replica{event['replica']}"
    assert event["crashed_at"] <= event["rebooted_at"] <= event["ready_at"]
    assert result.first_crash_at == event["crashed_at"]
    assert result.last_ready_at == event["ready_at"]
    assert result.recovery_times() == [event["ready_at"] - event["rebooted_at"]]


def test_json_summary_is_self_consistent():
    result = tiny_experiment(seed=13).one_crash().run()
    data = result.to_dict()
    assert data["completed"] > 0
    assert data["errors"] >= 0
    assert data["accuracy_pct"] == pytest.approx(
        100.0 * (1 - data["errors"] / data["completed"]), abs=0.01)
    assert data["faults_injected"] == 1
    assert len(data["recovery_times_s"]) == 1


#: A tiny 3-replica run whose open-loop load almost never arrives: its
#: measurement interval sees no interaction at all.
IDLE = ["--scale", "tiny", "--replicas", "3", "--load", "open:wips=0.001"]


def test_accuracy_is_undefined_when_no_interaction_was_measured(
        tmp_path, capsys):
    from repro.harness.cli import main
    path = tmp_path / "idle.json"
    assert main(["run", "baseline", *IDLE, "--json", str(path)]) == 0
    assert re.search(r"accuracy +undefined", capsys.readouterr().out)
    data = json.loads(path.read_text())
    assert (data["completed"], data["awips"]) == (0, 0.0)
    assert data["accuracy_pct"] is None
    assert main(["report", str(path)]) == 0
    assert re.search(r"accuracy +undefined", capsys.readouterr().out)


def test_recovery_sweep_prints_undefined_accuracy_for_an_idle_point(capsys):
    from repro.harness.cli import main
    assert main(["sweep", "recovery", "--ebs-list", "30", *IDLE]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("30 ")]
    assert row.split()[-1] == "undefined"
