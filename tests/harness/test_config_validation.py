"""A deployment that cannot serve is refused before anything runs.

``ClusterConfig.__post_init__`` holds one rule per field; the builder
surfaces it from ``build_config()``, and the CLI turns it -- and every
malformed or out-of-range fault spec -- into ``error: ...`` with exit
status 2, never a traceback.
"""

import math

import pytest

from repro.geo import GeoConfig, Topology
from repro.harness import Experiment, tiny_scale
from repro.harness.cli import main


def _tiny(**fields):
    return Experiment(tiny_scale(), replicas=3, offered_wips=400.0, **fields)


#: (case, builder, message fragment)
BAD_CONFIGS = [
    ("no replicas", lambda: _tiny().configure(replicas=0), "replicas"),
    ("negative replicas", lambda: _tiny().configure(replicas=-2),
     "replicas"),
    ("no shards", lambda: _tiny().shards(0), "shards"),
    ("no emulated browsers", lambda: _tiny(num_ebs=0), "num_ebs"),
    ("no items", lambda: _tiny(num_items=-1), "num_items"),
    ("zero wips", lambda: _tiny().load("closed", wips=0), "offered_wips"),
    ("negative wips", lambda: _tiny().load("closed", wips=-5),
     "offered_wips"),
    ("nan wips", lambda: _tiny().load("open", wips=math.nan),
     "offered_wips"),
    ("infinite wips", lambda: _tiny().load("open", wips=math.inf),
     "offered_wips"),
    ("negative think time",
     lambda: _tiny().load("closed", think_time_s=-1.0), "think_time_s"),
    ("nan think time",
     lambda: _tiny().load("closed", think_time_s=math.nan), "think_time_s"),
    ("zero client timeout", lambda: _tiny().load("closed", timeout_s=0),
     "rbe_timeout_s"),
    ("negative client timeout",
     lambda: _tiny().load("open", timeout_s=-1.0), "rbe_timeout_s"),
    ("infinite client timeout",
     lambda: _tiny().load("closed", timeout_s=math.inf), "rbe_timeout_s"),
    ("zero obs tick", lambda: _tiny().observe(tick_s=0), "obs_tick_s"),
    ("negative obs tick", lambda: _tiny().observe(tick_s=-5.0),
     "obs_tick_s"),
    ("nan obs tick", lambda: _tiny().observe(tick_s=math.nan), "obs_tick_s"),
    ("unknown paxos override",
     lambda: _tiny(paxos_overrides=(("heartbeat_interval_s", 1.0),)),
     "cannot override 'heartbeat_interval_s'"),
    ("unknown treplica override",
     lambda: _tiny(treplica_overrides=(("chunk_mb", 4.0),)),
     "cannot override 'chunk_mb'"),
]


@pytest.mark.parametrize("case, build, field",
                         BAD_CONFIGS, ids=[c[0] for c in BAD_CONFIGS])
def test_build_config_refuses_a_deployment_that_cannot_serve(
        case, build, field, monkeypatch):
    def no_cluster(*_args, **_kwargs):
        raise AssertionError("a cluster was built for a bad config")

    monkeypatch.setattr("repro.harness.experiments.RobustStoreCluster",
                        no_cluster)
    experiment = build()
    with pytest.raises(ValueError, match=field):
        experiment.build_config()
    with pytest.raises(ValueError, match=field):
        experiment.run()


_GEO = {"geo": GeoConfig(topology=Topology(("dc0", "dc1")))}

#: (case, nemesis spec, configure() fields, message fragment): a nemesis
#: spec must parse and name targets the deployment has, like any other
#: part of the run's faultload.
BAD_NEMESIS_SPECS = [
    ("unknown kind", "explode@1-2:p=0.5", {}, "unknown fault kind"),
    ("replica out of range", "drop@1-2:5>0:p=0.5", {}, "targets replica 5"),
    ("shard out of range", "torn@1-2:2.0", {"shards": 2},
     "targets shard 2"),
    ("unknown DC", "dcfail@240:nodc", _GEO, "unknown datacenter"),
    ("DC kind without geo", "wanpart@240:dc0|dc1", {},
     "no geo topology"),
]


@pytest.mark.parametrize("case, spec, fields, fragment", BAD_NEMESIS_SPECS,
                         ids=[c[0] for c in BAD_NEMESIS_SPECS])
def test_cluster_config_refuses_a_bad_nemesis_spec(case, spec, fields,
                                                   fragment):
    with pytest.raises(ValueError, match=fragment):
        Experiment(replicas=3, **fields).nemesis(spec).build_config()


def test_zero_think_time_is_a_valid_deployment():
    config = _tiny().load("closed", think_time_s=0.0).build_config()
    assert config.think_time_s == 0.0 and config.num_rbes == 1


@pytest.mark.parametrize("preset", ["partition", "retry_storm"])
@pytest.mark.parametrize("duration_s", [0.0, -10.0, math.nan])
def test_window_presets_refuse_a_window_that_ends_before_it_starts(
        preset, duration_s):
    with pytest.raises(ValueError, match=f"{preset} duration"):
        getattr(_tiny(), preset)(duration_s=duration_s)


#: Options each case adds to a tiny 3-replica command line, and the
#: sub-commands that take them (--obs is `repro run`'s alone).
ALL = ("run", "trace", "postmortem")
BAD_CLI_INPUTS = {
    "obs tick 0": (["--obs", "--obs-tick", "0"], ("run",)),
    "obs tick -1": (["--obs", "--obs-tick", "-1"], ("run",)),
    "0 replicas": (["--replicas", "0"], ALL),
    "0 wips": (["--offered-wips", "0"], ALL),
    "0 shards": (["--shards", "0"], ALL),
    "0 EBs": (["--ebs", "0"], ALL),
    "unknown fault kind": (["--faultload", "bogus@1"], ALL),
    "probability out of range": (["--nemesis", "drop@1-2:p=7"], ALL),
    "replica out of range": (["--faultload", "crash@240:7"], ALL),
    "nemesis replica out of range": (["--nemesis", "oneway@90-150:0>7"],
                                     ALL),
    "shard on a flat deployment": (["--faultload", "crash@240:1.0"], ALL),
}
CLI_CASES = [(command, case) for case, (_, commands)
             in sorted(BAD_CLI_INPUTS.items()) for command in commands]


@pytest.mark.parametrize("command, case", CLI_CASES)
def test_cli_bad_input_is_a_usage_error(command, case, capsys):
    argv = [command, "baseline", "--scale", "tiny", "--replicas", "3",
            *BAD_CLI_INPUTS[case][0]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sweep", "scaleup", "--replicas-list", "3,0"],
    ["sweep", "recovery", "--ebs-list", "30,-1"],
])
def test_sweep_refuses_a_bad_point_before_running_any(argv, capsys,
                                                      monkeypatch):
    def no_run(*_args, **_kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr("repro.harness.experiments.RobustStoreCluster",
                        no_run)
    assert main([*argv, "--scale", "tiny"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
