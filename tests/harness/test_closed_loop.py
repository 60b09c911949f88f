"""Closed-loop laws the paper's analysis relies on (Section 5.3).

TPC-W's RBEs form a closed queueing network: with N emulated browsers and
think time Z, Little's law gives WIPS = N / (Z + WIRT).  The paper uses
the resulting WIPS/WIRT linear correlation to estimate latencies from
throughput drops; these tests pin that machinery in our harness.
"""

import pytest

from repro.harness.experiment import Experiment

from tests.harness.helpers import tiny_config, tiny_experiment


def test_littles_law_holds_unsaturated():
    config = tiny_config(offered_wips=400.0, seed=29)
    result = Experiment.from_config(config).baseline().run()
    stats = result.whole_window()
    n_rbes = config.num_rbes
    think = config.think_time_s
    predicted = n_rbes / (think + stats.mean_wirt_s)
    assert stats.awips == pytest.approx(predicted, rel=0.08)


def test_littles_law_holds_saturated():
    config = tiny_config(offered_wips=4000.0, seed=29)
    result = Experiment.from_config(config).baseline().run()
    stats = result.whole_window()
    predicted = config.num_rbes / (config.think_time_s + stats.mean_wirt_s)
    assert stats.awips == pytest.approx(predicted, rel=0.12)


def test_more_load_means_higher_latency():
    latencies = []
    for offered in (400.0, 2000.0, 4000.0):
        stats = (tiny_experiment(offered_wips=offered, seed=29)
                 .baseline().run().whole_window())
        latencies.append(stats.mean_wirt_s)
    assert latencies[0] < latencies[1] < latencies[2]


def test_saturation_caps_throughput():
    moderate = (tiny_experiment(offered_wips=2000.0, seed=29)
                .baseline().run().whole_window())
    heavy = (tiny_experiment(offered_wips=4000.0, seed=29)
             .baseline().run().whole_window())
    # Doubling offered load far past capacity must not double throughput.
    assert heavy.awips < 1.35 * moderate.awips
