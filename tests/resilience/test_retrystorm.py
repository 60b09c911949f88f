"""Retry storms end to end: ignition, defenses, parity, and the sweep.

Every storm here runs at one pinned load point (1400 browsing
wips, 1.5s client timeout, retrystorm factor 8 for 60 paper-seconds):
hot enough that the backlog at heal time exceeds the client timeout,
which is what lets a naive immediate-retry fleet re-ignite itself.  At
materially lower offered load the backlog drains inside one timeout and
no retry discipline can go metastable.
"""

import pytest

from repro.harness.config import tiny_scale
from repro.harness.experiment import Experiment

pytestmark = pytest.mark.resilience

# Offered load sits at ~85% of cluster capacity so the slowdown window
# pushes response times past the client timeout and the naive retry
# feedback loop can ignite.
SWEEP_WIPS = 1400.0
TIMEOUT_S = 1.5
RETRY_STORM_DURATION_S = 60.0
RETRY_STORM_FACTOR = 8.0
RETRY_NAIVE_SPEC = "immediate"
RETRY_DEFENDED_SPEC = "expo:base=0.5,cap=8,budget=10%"


def _storm_experiment(seed, retry, defended):
    experiment = (Experiment(scale=tiny_scale(), seed=seed)
                  .load("open", wips=SWEEP_WIPS, mix="browsing",
                        timeout_s=TIMEOUT_S, retry=retry)
                  .retry_storm(duration_s=RETRY_STORM_DURATION_S,
                               factor=RETRY_STORM_FACTOR)
                  .observe().check_safety())
    if defended:
        experiment.defend()
    return experiment


# ----------------------------------------------------------------------
# zero cost when off
# ----------------------------------------------------------------------
def test_retry_none_is_bit_for_bit_the_default_open_loop():
    """``retry=none`` with defenses off must not perturb a run at all:
    no extra RNG draws, no behaviour change, identical samples."""
    def run(retry):
        return (Experiment(scale=tiny_scale(), seed=2009)
                .load("open", wips=400.0, mix="browsing", timeout_s=2.0,
                      retry=retry)
                .run())

    bare, explicit = run(None), run("none")
    assert bare.collector.samples == explicit.collector.samples
    bare_w, explicit_w = bare.whole_window(), explicit.whole_window()
    assert bare_w.completed == explicit_w.completed
    assert bare_w.errors == explicit_w.errors
    assert bare_w.awips == explicit_w.awips


def test_retry_none_is_bit_for_bit_the_default_closed_loop():
    def run(retry):
        return (Experiment(scale=tiny_scale(), seed=2009)
                .load("closed", wips=1900.0, retry=retry)
                .one_crash(replica=1)
                .run())

    bare, explicit = run(None), run("none")
    assert bare.collector.samples == explicit.collector.samples
    assert bare.recoveries == explicit.recoveries


# ----------------------------------------------------------------------
# the demo pair
# ----------------------------------------------------------------------
def test_naive_storm_ignites_and_defenses_put_it_out():
    """Same seed, same storm: immediate retries pin the system after the
    heal; backoff+budget clients against a defended cluster recover."""
    naive = _storm_experiment(2009, RETRY_NAIVE_SPEC, defended=False).run()
    defended = _storm_experiment(2009, RETRY_DEFENDED_SPEC,
                                 defended=True).run()
    assert not naive.safety_violations
    assert not defended.safety_violations
    assert naive.metastability().verdict == "metastable"
    assert defended.metastability().verdict == "recovered"


# ----------------------------------------------------------------------
# recorder parity under a storm
# ----------------------------------------------------------------------
def test_recorded_storm_run_is_bit_for_bit_identical():
    def run(instrumented):
        experiment = _storm_experiment(7, RETRY_DEFENDED_SPEC, defended=True)
        if instrumented:
            experiment.record()
        return experiment.run()

    bare, recorded = run(False), run(True)
    assert bare.collector.samples == recorded.collector.samples
    bare_w, rec_w = bare.whole_window(), recorded.whole_window()
    assert bare_w.completed == rec_w.completed
    assert bare_w.errors == rec_w.errors
    assert recorded.flight is not None and recorded.flight.recorded > 0
    assert recorded.flight.counts().get("fault.inject", 0) >= 1


# ----------------------------------------------------------------------
# the sweep: defenses are safe and effective across seeds
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 26))
def test_defended_storm_sweep_stays_safe_and_never_metastable(seed):
    result = _storm_experiment(seed, RETRY_DEFENDED_SPEC, defended=True).run()
    assert not result.safety_violations
    report = result.metastability()
    assert report.verdict != "metastable", report.to_dict()
