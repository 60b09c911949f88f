"""The ``repro`` command line: run, sweep, trace, postmortem, explore,
report."""

import importlib
import json
from collections import defaultdict
from itertools import takewhile
from types import SimpleNamespace

import pytest

from repro.harness.cli import _build_experiment, build_parser, main
from repro.harness.experiment import Experiment
from repro.harness.sweeps import SPEEDUP_OFFERED_PER_REPLICA


def run_args(extra=()):
    """A tiny-scale, low-load run so each CLI test is ~1 s."""
    return ["run", "baseline", "--scale", "tiny", "--replicas", "3",
            "--offered-wips", "400", *extra]


def test_parser_defaults():
    """A bare ``run`` builds exactly the builder's default one-crash
    config: the CLI restates none of ClusterConfig's defaults."""
    args = build_parser().parse_args(["run"])
    assert args.command == "run"
    assert args.scenario == "one_crash"
    config = _build_experiment(args).build_config()
    assert config == Experiment().load("closed").one_crash().build_config()
    assert config.profile == "shopping"
    assert config.replicas == 5
    assert config.scale.name == "bench"


def test_parser_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "meteor-strike"])


def test_run_baseline_prints_report(capsys):
    code = main(run_args(["--timeline"]))
    assert code == 0
    out = capsys.readouterr().out
    assert "AWIPS" in out
    assert "WIPS timeline" in out


def test_run_one_crash_reports_faultload_measures(capsys):
    code = main(["run", "one_crash", "--scale", "tiny"])
    assert code == 0
    out = capsys.readouterr().out
    assert "performability PV" in out
    assert "faults / interventions" in out


def test_run_obs_prints_kernel_profile_and_writes_timeline(capsys, tmp_path):
    out_json = tmp_path / "timeline.json"
    code = main(["run", "one_crash", "--scale", "tiny",
                 "--obs", "--obs-out", str(out_json)])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel profile" in out
    timeline = json.loads(out_json.read_text())
    assert "web.interactions_ok" in timeline["series"]
    points = timeline["series"]["web.interactions_ok"]["points"]
    assert points[-1][1] > 0  # interactions accumulated


def test_obs_out_csv_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "timeline.csv"
    code = main(run_args(["--obs-out", str(out_csv)]))  # implies --obs
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("t,")
    assert "paxos.decisions" in header


def test_json_export(tmp_path):
    path = tmp_path / "result.json"
    code = main(["run", "one_crash", "--scale", "tiny", "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["config"]["replicas"] == 5
    assert data["faultload"] == "one-crash"
    assert data["faults_injected"] == 1
    assert data["pv_pct"] is not None
    assert data["wips_series"]
    assert 0.0 <= min(data["wirt_compliance"].values()) <= 1.0


def test_report_rerenders_saved_run(tmp_path, capsys):
    path = tmp_path / "result.json"
    main(["run", "one_crash", "--scale", "tiny", "--obs",
          "--json", str(path)])
    capsys.readouterr()
    code = main(["report", str(path), "--timeline",
                 "--series", "paxos.decisions"])
    assert code == 0
    out = capsys.readouterr().out
    assert "performability PV" in out
    assert "WIPS timeline" in out
    assert "paxos.decisions" in out


def test_report_names_available_series_on_miss(tmp_path, capsys):
    path = tmp_path / "result.json"
    main(run_args(["--json", str(path)]))  # no --obs: no saved timeline
    capsys.readouterr()
    code = main(["report", str(path), "--series", "paxos.decisions"])
    assert code == 1
    assert "rerun with --obs" in capsys.readouterr().out


def test_sweep_recovery_tabulates_points(capsys):
    code = main(["sweep", "recovery", "--scale", "tiny",
                 "--ebs-list", "30", "--replicas", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery sweep" in out
    assert "PV" in out


# ----------------------------------------------------------------------
# sharded runs and the cross-shard aggregate report
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_json(tmp_path_factory):
    """One saved 2-shard run with per-shard timelines, shared by tests."""
    path = tmp_path_factory.mktemp("shardruns") / "sharded.json"
    code = main(run_args(["--shards", "2", "--obs", "--json", str(path)]))
    assert code == 0
    return path


def test_console_script_entry_point_is_declared():
    import pathlib
    pyproject = pathlib.Path(__file__).parents[2] / "pyproject.toml"
    assert 'repro = "repro.harness.cli:main"' in pyproject.read_text()
    assert callable(main)  # the declared target


def test_run_shards_writes_per_shard_timeline(sharded_json):
    data = json.loads(sharded_json.read_text())
    assert data["config"]["shards"] == 2
    series = data["timeline"]["series"]
    assert "shard.s0.interactions_ok" in series
    assert "shard.s1.interactions_ok" in series


def test_report_aggregate_folds_shards_into_cluster_series(
        sharded_json, capsys):
    code = main(["report", str(sharded_json), "--aggregate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "shard 0 AWIPS" in out
    assert "shard 1 AWIPS" in out
    assert "cluster AWIPS (sum of shards)" in out
    assert "cluster WIPS (all shards)" in out


def test_report_aggregate_rejects_mixed_shard_counts(
        sharded_json, tmp_path, capsys):
    plain = tmp_path / "plain.json"
    main(run_args(["--obs", "--json", str(plain)]))
    capsys.readouterr()
    code = main(["report", str(sharded_json), str(plain), "--aggregate"])
    assert code == 1
    err = capsys.readouterr().err
    assert "one shard count" in err
    assert "2 shard(s)" in err and "1 shard(s)" in err


def test_report_aggregate_needs_per_shard_timeline(tmp_path, capsys):
    path = tmp_path / "no-obs.json"
    main(run_args(["--shards", "2", "--json", str(path)]))  # no --obs
    capsys.readouterr()
    code = main(["report", str(path), "--aggregate"])
    assert code == 1
    assert "rerun with --shards k --obs" in capsys.readouterr().err


def test_report_multiple_paths_require_aggregate(sharded_json, capsys):
    code = main(["report", str(sharded_json), str(sharded_json)])
    assert code == 2
    assert "--aggregate" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the `trace` subcommand and the output-path / empty-input fixes
# ----------------------------------------------------------------------
def trace_args(extra=()):
    return ["trace", "one_crash", "--scale", "tiny", "--replicas", "3",
            "--offered-wips", "400", *extra]


def test_trace_prints_both_analyses_by_default(capsys):
    code = main(trace_args())
    assert code == 0
    out = capsys.readouterr().out
    assert "WIRT critical path" in out
    assert "recovery phases" in out
    for column in ("queueing", "quorum", "detection", "checkpoint"):
        assert column in out


def test_trace_critical_path_only(capsys):
    code = main(trace_args(["--critical-path"]))
    assert code == 0
    out = capsys.readouterr().out
    assert "WIRT critical path" in out
    assert "recovery phases" not in out


def test_trace_export_chrome_creates_parent_dirs(tmp_path, capsys):
    out_path = tmp_path / "not" / "yet" / "there" / "trace.json"
    code = main(trace_args(["--recovery-phases", "--export", "chrome",
                            "--out", str(out_path)]))
    assert code == 0
    document = json.loads(out_path.read_text())
    assert document["displayTimeUnit"] == "ms"
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert complete and all(e["dur"] >= 0 for e in complete)


def test_trace_export_jsonl(tmp_path):
    out_path = tmp_path / "spans.jsonl"
    code = main(trace_args(["--critical-path", "--export", "jsonl",
                            "--out", str(out_path)]))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines and all(
        json.loads(line)["type"] in ("span", "mark") for line in lines)


def test_trace_export_requires_out(capsys):
    code = main(["trace", "baseline", "--export", "chrome"])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_run_json_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "results" / "run.json"
    code = main(run_args(["--json", str(path)]))
    assert code == 0
    assert json.loads(path.read_text())["config"]["replicas"] == 3


def test_run_obs_out_creates_parent_dirs(tmp_path):
    path = tmp_path / "deep" / "timeline.csv"
    code = main(run_args(["--obs-out", str(path)]))
    assert code == 0
    assert path.read_text().startswith("t,")


def test_report_glob_expansion(tmp_path, capsys):
    path = tmp_path / "result.json"
    main(run_args(["--json", str(path)]))
    capsys.readouterr()
    code = main(["report", str(tmp_path / "*.json")])
    assert code == 0
    assert "AWIPS" in capsys.readouterr().out


def test_report_empty_glob_is_a_clear_error(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nothing-*.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "no result files match" in err
    assert "nothing-*.json" in err


def test_report_missing_file_is_a_clear_error(tmp_path, capsys):
    code = main(["report", str(tmp_path / "absent.json")])
    assert code == 2
    assert "no result files match" in capsys.readouterr().err


def test_sweep_empty_points_list_is_a_clear_error(capsys):
    code = main(["sweep", "speedup", "--scale", "tiny",
                 "--replicas-list", ","])
    assert code == 2
    assert "--replicas-list" in capsys.readouterr().err
    code = main(["sweep", "recovery", "--scale", "tiny", "--ebs-list", ""])
    assert code == 2
    assert "--ebs-list" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the `--load` grammar
# ----------------------------------------------------------------------
def test_run_load_open_reports_population(capsys):
    code = main(run_args(["--load", "open:population=1000000"]))
    assert code == 0
    out = capsys.readouterr().out
    assert "open loop, 1,000,000 users" in out
    assert "AWIPS" in out


def test_run_load_open_json_records_the_mode(tmp_path):
    path = tmp_path / "open.json"
    code = main(run_args(["--load", "open:wips=300,population=5000",
                          "--json", str(path)]))
    assert code == 0
    config = json.loads(path.read_text())["config"]
    assert config["load_mode"] == "open"
    assert config["population"] == 5000
    assert config["offered_wips"] == 300.0


def test_run_load_bad_spec_is_a_clear_error(capsys):
    code = main(run_args(["--load", "open:burstiness=9"]))
    assert code == 2
    assert "bad --load option" in capsys.readouterr().err
    code = main(run_args(["--load", "lukewarm"]))
    assert code == 2
    assert "'closed' or 'open'" in capsys.readouterr().err


def test_sweep_accepts_open_load(capsys):
    code = main(["sweep", "scaleup", "--scale", "tiny", "--replicas-list",
                 "3", "--offered-wips", "400", "--load",
                 "open:population=1000"])
    assert code == 0
    assert "scaleup sweep" in capsys.readouterr().out


# ----------------------------------------------------------------------
# `python -m repro <sub-command>` is the only form
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [[], ["--experiment", "baseline"]],
                         ids=["bare", "flat-form"])
def test_missing_subcommand_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert "running" not in captured.out    # nothing was started


# ----------------------------------------------------------------------
# SLOs on the command line
# ----------------------------------------------------------------------
def test_run_with_slo_prints_verdict_row(capsys):
    code = main(["run", "one_crash", "--scale", "tiny",
                 "--slo", "wirt_p99<2s,error_rate<1%"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SLO PASS" in out or "SLO FAIL" in out
    assert "budget burned" in out


def test_run_rejects_bad_slo_spec(capsys):
    code = main(["run", "one_crash", "--scale", "tiny",
                 "--slo", "latency<fast"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_bad_slo_spec_before_running(capsys):
    code = main(["sweep", "speedup", "--scale", "tiny",
                 "--slo", "nonsense"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro postmortem
# ----------------------------------------------------------------------
def test_postmortem_parser_defaults():
    args = build_parser().parse_args(["postmortem"])
    assert args.command == "postmortem"
    assert args.scenario == "one_crash"
    assert args.slo is None
    assert args.json is None and args.md is None and args.events_out is None


def test_postmortem_prints_report_and_writes_artifacts(tmp_path, capsys):
    json_out = tmp_path / "incident.json"
    md_out = tmp_path / "incident.md"
    events_out = tmp_path / "events.jsonl"
    code = main(["postmortem", "one_crash", "--scale", "tiny",
                 "--json", str(json_out), "--md", str(md_out),
                 "--events-out", str(events_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# Post-mortem: faultload `one-crash`" in out
    assert "## Incident 1: crash" in out
    assert "slo 'wirt_p99<2s,error_rate<1%'" in out   # the default SLO
    report = json.loads(json_out.read_text())
    assert len(report["incidents"]) == 1
    assert report["slo"]["spec"] == "wirt_p99<2s,error_rate<1%"
    assert md_out.read_text().startswith("# Post-mortem:")
    # every dumped recorder line is one JSON event
    lines = events_out.read_text().strip().split("\n")
    assert len(lines) == report["recorder"]["recorded"]
    assert json.loads(lines[0])["kind"]


def test_postmortem_json_is_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["postmortem", "one_crash", "--scale", "tiny",
                 "--json", str(first)]) == 0
    assert main(["postmortem", "one_crash", "--scale", "tiny",
                 "--json", str(second)]) == 0
    assert first.read_text() == second.read_text()


def test_postmortem_rejects_bad_slo(capsys):
    code = main(["postmortem", "one_crash", "--scale", "tiny",
                 "--slo", "wat"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro report --metrics-out (Prometheus textfile)
# ----------------------------------------------------------------------
def test_report_metrics_out_writes_prometheus_textfile(tmp_path, capsys):
    result_json = tmp_path / "result.json"
    assert main(["run", "one_crash", "--scale", "tiny", "--obs",
                 "--json", str(result_json)]) == 0
    capsys.readouterr()
    prom = tmp_path / "metrics.prom"
    code = main(["report", str(result_json), "--metrics-out", str(prom)])
    assert code == 0
    assert f"wrote {prom}" in capsys.readouterr().out
    text = prom.read_text()
    assert "# TYPE repro_web_interactions_ok counter" in text
    assert "# TYPE repro_web_wirt_s summary" in text


def test_report_metrics_out_needs_an_obs_result(tmp_path, capsys):
    result_json = tmp_path / "result.json"
    assert main(["run", "one_crash", "--scale", "tiny",
                 "--json", str(result_json)]) == 0
    capsys.readouterr()
    code = main(["report", str(result_json),
                 "--metrics-out", str(tmp_path / "m.prom")])
    assert code == 1
    assert "no metrics snapshot" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one path from the shared options to a deployment: sweep and explore
# build through _build_experiment like run/trace/postmortem
# ----------------------------------------------------------------------
class _StubResult:
    """Just enough of an ExperimentResult for the sweep drivers."""

    def whole_window(self):
        return SimpleNamespace(awips=1.0, mean_wirt_s=0.1, cv=0.0)

    def recovery_times(self):
        return [1.0]

    def pv_pct(self):
        return 0.0

    def accuracy_pct(self):
        return 100.0


@pytest.fixture
def sweep_configs(monkeypatch):
    """The ClusterConfig of every sweep point, recorded instead of run."""
    configs = []

    def fake_run(experiment):
        configs.append(experiment.build_config())
        return _StubResult()

    monkeypatch.setattr(Experiment, "run", fake_run)
    return configs


@pytest.fixture
def explored_configs(monkeypatch):
    """The ClusterConfig `repro explore` hands its runner, recorded
    instead of explored."""
    configs = []

    def fake_explore(runner, max_faults, budget):
        configs.append(runner.config)
        return SimpleNamespace(counters=defaultdict(int), coverage_pct=100.0,
                               points=[], violations=[])

    # repro.faults re-exports the explore() function under the name of
    # its module, so patch the module itself.
    module = importlib.import_module("repro.faults.explore")
    monkeypatch.setattr(module, "explore", fake_explore)
    return configs


def test_sweep_load_timeout_reaches_the_config(sweep_configs):
    code = main(["sweep", "recovery", "--scale", "tiny", "--ebs-list", "30",
                 "--load", "closed:timeout=1.5"])
    assert code == 0
    assert [config.rbe_timeout_s for config in sweep_configs] == [1.5]


def test_explore_load_retry_reaches_the_config(explored_configs, capsys):
    code = main(["explore", "--shards", "2", "--scale", "tiny",
                 "--load", "open:wips=500,retry=immediate"])
    assert code == 0
    (config,) = explored_configs
    assert config.retry_spec == "immediate"
    assert (config.load_mode, config.offered_wips) == ("open", 500.0)
    # Unsharded, the same load builds and the runner's own check speaks.
    code = main(["explore", "--scale", "tiny",
                 "--load", "open:wips=500,retry=immediate"])
    assert code == 2
    assert "shards >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "baseline"], ["trace", "baseline"], ["postmortem", "baseline"],
    ["sweep", "scaleup", "--replicas-list", "3"], ["explore", "--shards", "2"],
], ids=lambda argv: argv[0])
def test_open_loop_clients_is_rejected_everywhere(
        argv, sweep_configs, explored_configs, capsys):
    code = main([*argv, "--scale", "tiny",
                 "--load", "open:wips=5,clients=3"])
    assert code == 2
    assert "clients is a closed-loop knob" in capsys.readouterr().err
    assert not sweep_configs and not explored_configs


@pytest.mark.parametrize("kind", ["speedup", "scaleup", "recovery"])
def test_sweep_points_carry_the_shared_options(kind, sweep_configs):
    code = main(["sweep", kind, "--scale", "tiny", "--profile", "browsing",
                 "--replicas", "4", "--replicas-list", "3,5",
                 "--ebs", "70", "--ebs-list", "50", "--shards", "2",
                 "--no-fast", "--geo", "dc0,dc1,dc2", "--defend",
                 "--slo", "wirt_p99<2s", "--seed", "7",
                 "--offered-wips", "400"])
    assert code == 0
    swept = {"recovery": [(4, 50)]}.get(kind, [(3, 70), (5, 70)])
    assert [(c.replicas, c.num_ebs) for c in sweep_configs] == swept
    for config in sweep_configs:
        assert config.scale.name == "tiny"
        assert config.profile == "browsing"
        assert config.shards == 2
        assert config.enable_fast is False
        assert config.geo.topology.dcs == ("dc0", "dc1", "dc2")
        assert config.defenses is True
        assert config.slo_spec == "wirt_p99<2s"
        assert config.seed == 7
        # Speedup's load grows with the cluster; the others hold it.
        assert config.offered_wips == (
            SPEEDUP_OFFERED_PER_REPLICA * config.replicas
            if kind == "speedup" else 400.0)


def test_sweep_speedup_rejects_a_fixed_offered_load(sweep_configs, capsys):
    code = main(["sweep", "speedup", "--scale", "tiny",
                 "--load", "closed:wips=900"])
    assert code == 2
    assert "sweep scaleup --offered-wips" in capsys.readouterr().err
    assert not sweep_configs


def _first_table_rows(out):
    """The rows of the first table printed, below its ``----`` rule."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    return list(takewhile(lambda line: line and not line.startswith("wrote "),
                          lines[start + 1:]))


def test_report_renders_the_summary_rows_of_run(tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main(["run", "one_crash", "--scale", "tiny",
                 "--nemesis", "drop@60-300:p=0.1", "--check-safety",
                 "--slo", "wirt_p99<2s", "--json", str(path)]) == 0
    run_rows = _first_table_rows(capsys.readouterr().out)
    assert main(["report", str(path)]) == 0
    report_rows = _first_table_rows(capsys.readouterr().out)
    assert report_rows == run_rows
    for measure in ("recovery AWIPS", "nemesis drop/dup/delay",
                    "safety checker", "SLO "):
        assert any(row.startswith(measure) for row in run_rows), measure
