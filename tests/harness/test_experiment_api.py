"""The fluent Experiment builder: the one front door for every run."""

import pytest

from repro.harness import experiments
from repro.harness.config import ClusterConfig
from repro.harness.experiment import Experiment

from tests.harness.helpers import tiny_config


def light_config(**overrides):
    # lighter than tiny_config, to keep this file fast
    defaults = dict(replicas=3, offered_wips=500.0)
    defaults.update(overrides)
    return tiny_config(**defaults)


# ----------------------------------------------------------------------
# builder basics
# ----------------------------------------------------------------------
def test_builder_chains_and_resolves_config():
    experiment = (Experiment(replicas=7)
                  .load("closed", mix="ordering")
                  .observe(tick_s=2.0)
                  .check_safety()
                  .one_crash(1))
    config = experiment.build_config()
    assert config.replicas == 7
    assert config.profile == "ordering"
    assert config.observability is True
    assert config.obs_tick_s == 2.0
    assert config.safety_tracing is True


def test_configure_overrides_late():
    config = Experiment(replicas=3).configure(replicas=9).build_config()
    assert config.replicas == 9


def test_from_config_preserves_the_config():
    base = ClusterConfig(replicas=4, seed=7)
    assert Experiment.from_config(base).build_config() is base


def test_faults_validates_spec_eagerly():
    with pytest.raises(ValueError):
        Experiment().faults("explode@240:*")


def test_nemesis_takes_any_fault_kind():
    # nemesis() events join the run's one faultload, ahead of the
    # scenario's, whatever their kind.
    experiment = Experiment().nemesis("crash@240:1,drop@60-300:p=0.1")
    faultload = experiment.one_crash(2)._paper_faultload()
    assert faultload.name == "one-crash"
    assert [(e.kind, e.at) for e in faultload.events] == [
        ("crash", 240.0), ("drop", 60.0), ("crash", 270.0)]
    with pytest.raises(ValueError, match="unknown fault kind"):
        Experiment().nemesis("explode@240:1")


# ----------------------------------------------------------------------
# the deprecated run_* driver zoo is gone (removed in PR 12)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [
    "run_baseline", "run_custom", "run_one_crash", "run_two_crashes",
    "run_sequential_crashes", "run_partition", "run_delayed_recovery",
    "run_speedup_point", "run_scaleup_point"])
def test_no_driver_shim_survives(name):
    import repro.harness
    assert not hasattr(experiments, name)
    assert not hasattr(repro.harness, name)


# ----------------------------------------------------------------------
# recovery_window now refuses faultless runs
# ----------------------------------------------------------------------
def test_recovery_window_raises_on_baseline_with_guidance():
    result = Experiment.from_config(light_config()).baseline().run()
    with pytest.raises(experiments.MissingWindowError) as excinfo:
        result.recovery_window()
    message = str(excinfo.value)
    assert "'none'" in message  # names the faultload that ran
    assert "one_crash" in message  # and points at the fix
    assert result.pv_pct() is None  # the soft probes still degrade gently
    assert result.to_dict()["recovery_awips"] is None


def test_recovery_window_present_on_crash_runs():
    result = Experiment.from_config(light_config()).one_crash().run()
    assert result.faultload_name == "one-crash"
    assert result.recovery_window().awips >= 0.0
