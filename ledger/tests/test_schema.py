"""``BENCHMARK.json``, the metric tables and a report agree on every name."""

import json
import re

from ledger import metrics, runner, workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((runner.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "-m", "ledger.run"]
    assert BENCHMARK["paths"] == ["ledger"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for row in BENCHMARK["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
        assert "\n" not in row["why"]
    for row in BENCHMARK["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in BENCHMARK["per_layer"]:
        assert set(row) == {"name", "unit", "better"}


def test_workloads_match_the_ledger():
    assert [(row["name"], row["why"]) for row in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS]


def test_end_to_end_matches_the_ledger_and_has_setup_s():
    listed = [(m["name"], m["unit"], m["better"], m["bound"])
              for m in BENCHMARK["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better, m.bound)
                      for m in metrics.contract_end_to_end()]
    assert ("setup_s", "s", "lower", 0.25) in listed


def test_per_layer_matches_the_ledger():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    # The two end-to-end metrics the contract cannot list as such.
    outside = {m.name for m in metrics.END_TO_END if not m.in_contract}
    assert outside <= {m.name for m in metrics.PER_LAYER}


def test_names_and_units_are_well_formed_and_used_once():
    rows = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [row["name"] for row in rows] + [
        row["name"] for row in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(row["unit"]) for row in rows)
    assert all(row["better"] in ("lower", "higher") for row in rows)
    assert {m.layer for m in metrics.PER_LAYER} == set(metrics.SHOULD_MOVE)


def test_committed_baseline_reports_name_every_metric():
    baseline = json.loads((runner.ROOT / "ledger" / "baselines"
                           / "BENCH_11_ledger.json").read_text())
    assert len(baseline["reports"]) == 2
    for report in baseline["reports"]:
        assert set(report["workloads"]) == set(workloads.BY_NAME)
        assert {"seed", "git_commit", "python", "nproc"} <= set(
            report["manifest"])
        assert report["spans"]
        assert report["probes"]["probe.calibration_s"]["value"] > 0
        for measured in report["workloads"].values():
            assert set(measured["end_to_end"]) == {
                m.name for m in metrics.END_TO_END}
            assert all(check["ok"] for check in measured["checks"])
            assert set(measured["per_layer"]) == {
                m.name for m in metrics.PER_LAYER if m.source == "T"}
        assert set(report["probes"]) == {
            m.name for m in metrics.PER_LAYER if m.source == "P"}
        # A number, or null with a stated reason.
        for row in list(report["probes"].values()) + [
                row for measured in report["workloads"].values()
                for row in measured["per_layer"].values()]:
            assert row["value"] is not None or row["reason"]
