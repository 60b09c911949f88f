"""``ledger compare`` on hand-made reports: no simulator run needed."""

import json

from ledger import compare
from ledger.metrics import END_TO_END
from ledger.runner import summary_row

BOUNDS = {spec.name: spec.bound for spec in END_TO_END}

BASE = {"host_s_per_sim_s": [0.100, 0.101, 0.102], "peak_rss_mb": [100.0] * 3,
        "setup_s": [0.30, 0.31, 0.32], "awips": [400.0, 401.0, 402.0],
        "wirt_p50_s": [0.070, 0.071, 0.072], "wirt_p99_s": [0.30, 0.31, 0.32],
        "error_share": [0.0, 0.0, 0.0], "recovery_s": [None, None, None]}


def report(seed=2009, **changed):
    """A fake one-workload report; ``changed`` replaces per-rep values."""
    per_rep = {**BASE, **changed}
    return {"manifest": {"seed": seed},
            "workloads": {"w": {"end_to_end": {
                name: summary_row(values)
                for name, values in per_rep.items()}}}}


def verdicts(a, b):
    return {metric: outcome for _w, metric, _a, _b, outcome
            in compare.compare_reports(a, b, BOUNDS)}


def test_identical_reports_are_ok_and_null_metrics_are_skipped():
    outcome = verdicts(report(), report())
    assert outcome.pop("recovery_s") == "skipped"
    assert set(outcome.values()) == {"ok"}


def test_worse_beyond_the_relative_bound_in_either_direction():
    slower = verdicts(report(), report(
        host_s_per_sim_s=[0.130, 0.131, 0.132]))        # lower is better
    assert slower["host_s_per_sim_s"] == "worse"
    fewer = verdicts(report(), report(awips=[300.0, 301.0, 302.0]))
    assert fewer["awips"] == "worse"                    # higher is better
    faster = verdicts(report(), report(
        host_s_per_sim_s=[0.050, 0.051, 0.052], awips=[500.0, 501.0, 502.0]))
    assert faster["host_s_per_sim_s"] == faster["awips"] == "ok"


def test_within_the_bound_is_ok():
    nudged = verdicts(report(), report(
        host_s_per_sim_s=[0.105, 0.106, 0.107]))
    assert nudged["host_s_per_sim_s"] == "ok"


def test_error_share_bound_is_absolute():
    # From 0 every relative change is infinite; the bound is +0.0002.
    assert verdicts(report(), report(
        error_share=[0.0001] * 3))["error_share"] == "ok"
    assert verdicts(report(), report(
        error_share=[0.0005] * 3))["error_share"] == "worse"


def test_host_spread_wider_than_the_bound_is_unresolved():
    noisy = report(host_s_per_sim_s=[0.080, 0.101, 0.140])
    assert verdicts(report(), noisy)["host_s_per_sim_s"] == "unresolved"
    assert verdicts(noisy, report())["host_s_per_sim_s"] == "unresolved"


def test_sim_spread_counts_as_noise_only_across_different_seeds():
    # Sub-seeds legitimately disagree; under one seed each value repeats
    # bit for bit, so a changed median is a changed model.
    scattered = {"wirt_p99_s": [0.20, 0.31, 0.45]}
    assert verdicts(report(**scattered),
                    report(**scattered))["wirt_p99_s"] == "ok"
    assert verdicts(report(seed=1, **scattered),
                    report(seed=2, **scattered))["wirt_p99_s"] == "unresolved"


def test_main_exits_2_on_any_worse_row(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report()))
    b.write_text(json.dumps(report(awips=[300.0, 301.0, 302.0])))
    assert compare.main(a, a) == 0
    assert compare.main(a, b) == 2
    assert "w  awips  401.0  301.0  worse" in capsys.readouterr().out
    # A baseline file holds several reports: first against last.
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps({"reports": [report(), json.loads(
        b.read_text())]}))
    assert compare.main(bundle) == 2
    assert compare.main(bundle, a) == 0
