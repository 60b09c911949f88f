"""The unified ``Experiment.load()`` entry point.

Covers the api_redesign contract: closed-loop runs configured through
``.load()`` are bit-for-bit identical to the pre-``.load()`` builder,
open-loop runs are seed-deterministic end to end (arrival sequence and
safety trace included), load fields given as constructor kwargs are
plain ``ClusterConfig`` overrides, and the mode-specific knobs are
validated eagerly.
"""

import warnings

import pytest

from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment


def _closed_via_load(seed=42):
    return (Experiment(tiny_scale(), replicas=3, seed=seed)
            .load("closed", wips=500.0, mix="shopping"))


def _closed_via_config(seed=42):
    return Experiment.from_config(ClusterConfig(
        scale=tiny_scale(), replicas=3, seed=seed,
        offered_wips=500.0, profile="shopping"))


def _open(seed=42, **load_kwargs):
    kwargs = dict(wips=500.0, population=1_000_000, mix="shopping")
    kwargs.update(load_kwargs)
    return (Experiment(tiny_scale(), replicas=3, seed=seed)
            .load("open", **kwargs))


# ----------------------------------------------------------------------
# closed-loop parity: .load() is a pure re-spelling
# ----------------------------------------------------------------------
def test_closed_load_is_bit_for_bit_the_old_builder():
    via_load = _closed_via_load().baseline().run()
    via_config = _closed_via_config().baseline().run()
    assert via_load.to_dict() == via_config.to_dict()


def test_closed_load_parity_under_a_crash_faultload():
    via_load = _closed_via_load().one_crash().run()
    via_config = _closed_via_config().one_crash().run()
    assert via_load.to_dict() == via_config.to_dict()


def test_load_resolves_config_fields():
    config = (Experiment()
              .load("open", wips=1900.0, population=250_000, mix="browsing",
                    arrival="deterministic", scale=tiny_scale())
              .build_config())
    assert config.load_mode == "open"
    assert config.offered_wips == 1900.0
    assert config.population == 250_000
    assert config.effective_population == 250_000
    assert config.profile == "browsing"
    assert config.arrival == "deterministic"
    assert config.scale.name == "tiny"


def test_closed_clients_pins_the_fleet_size():
    config = Experiment().load("closed", clients=123).build_config()
    assert config.load_mode == "closed"
    assert config.num_rbes == 123


# ----------------------------------------------------------------------
# open-loop determinism through the full harness
# ----------------------------------------------------------------------
def test_open_runs_are_seed_deterministic():
    first = _open(seed=7).baseline().run()
    second = _open(seed=7).baseline().run()
    assert first.to_dict() == second.to_dict()


def test_open_runs_differ_across_seeds():
    a = _open(seed=7).baseline().run().whole_window()
    b = _open(seed=8).baseline().run().whole_window()
    assert (a.awips, a.mean_wirt_s) != (b.awips, b.mean_wirt_s)


def test_open_crash_run_stays_safe_with_identical_trace():
    results = [
        _open(seed=7).check_safety().one_crash().run() for _ in range(2)]
    for result in results:
        assert result.safety_violations == []
        assert result.recovery_times()  # the replica actually recovered
    assert results[0].to_dict() == results[1].to_dict()


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_load_rejects_unknown_mode():
    with pytest.raises(ValueError, match="closed.*open"):
        Experiment().load("lukewarm")


def test_closed_rejects_open_only_knobs():
    with pytest.raises(ValueError, match="open-loop"):
        Experiment().load("closed", population=1000)
    with pytest.raises(ValueError, match="open-loop"):
        Experiment().load("closed", arrival="poisson")


def test_open_rejects_closed_only_knobs():
    with pytest.raises(ValueError, match="closed-loop"):
        Experiment().load("open", wips=100.0, clients=50)
    with pytest.raises(ValueError, match="think_time_s"):
        Experiment().load("open", wips=100.0, think_time_s=7.0)
    with pytest.raises(ValueError, match="use_navigation"):
        Experiment().load("open", wips=100.0, use_navigation=True)


def test_config_validates_load_fields_eagerly():
    with pytest.raises(ValueError):
        ClusterConfig(load_mode="semi-open")
    with pytest.raises(ValueError):
        ClusterConfig(arrival="bursty")
    with pytest.raises(ValueError):
        ClusterConfig(population=-1)
    with pytest.raises(ValueError):
        ClusterConfig(clients=0)


# ----------------------------------------------------------------------
# nothing on the load path warns
# ----------------------------------------------------------------------
def test_constructor_load_kwargs_are_plain_overrides():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Experiment(profile="ordering",
                            offered_wips=700.0).build_config()
    assert config.profile == "ordering"
    assert config.offered_wips == 700.0


def test_load_and_from_config_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Experiment().load("closed", wips=900.0, mix="browsing")
        Experiment.from_config(ClusterConfig(offered_wips=900.0))
