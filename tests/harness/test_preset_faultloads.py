"""Every scenario preset's resolved faultload, pinned per scale.

``Experiment._resolve_faultload`` turns a preset (a faultload-grammar
spec in paper seconds, ``repro.harness.experiment.PRESETS``) into the
events the injector arms, on the scale's compressed timeline; ``repro
run SCENARIO`` must resolve to the same events.  The table below was
computed from the presets and must not move under a refactor: a preset
that resolves to other events is another experiment.  Regenerate (only
for a deliberate change of the Section 5 timeline) with::

    PYTHONPATH=src python tests/harness/test_preset_faultloads.py
"""

import pytest

from repro.faults.faultload import FaultEvent
from repro.harness import Experiment, tiny_scale
from repro.harness.cli import (SCENARIOS, _build_experiment, _start,
                               build_parser)
from repro.harness.config import bench_scale, paper_scale

SCALES = {"tiny": tiny_scale, "bench": bench_scale, "paper": paper_scale}

PRESETS = {
    "baseline": lambda e: e.baseline(),
    "one_crash": lambda e: e.one_crash(),
    "one_crash(1)": lambda e: e.one_crash(1),
    "two_crashes": lambda e: e.two_crashes(),
    "sequential_crashes": lambda e: e.sequential_crashes(),
    "partition": lambda e: e.partition(),
    "partition(1, 300)": lambda e: e.partition(replica=1, duration_s=300.0),
    "retry_storm": lambda e: e.retry_storm(),
    "delayed_recovery": lambda e: e.delayed_recovery(),
}


def _crash(at, replica=None):
    return FaultEvent(at, "crash", replica)


PINNED = {
    "tiny": {
        "baseline": ("none", ()),
        "one_crash": ("one-crash", (_crash(13.5),)),
        "one_crash(1)": ("one-crash", (_crash(13.5, 1),)),
        "two_crashes": ("two-crashes", (_crash(12.0), _crash(13.5))),
        "sequential_crashes": ("sequential-crashes",
                               (_crash(6.0), _crash(18.0))),
        "partition": ("partition", (FaultEvent(
            12.0, "partition", 2, until=15.0),)),
        "partition(1, 300)": ("partition", (FaultEvent(
            12.0, "partition", 1, until=27.0),)),
        "retry_storm": ("retry-storm", (FaultEvent(
            12.0, "retrystorm", until=13.5, factor=8.0),)),
        "delayed_recovery": ("delayed-recovery", (
            _crash(12.0, 1), _crash(12.0, 2),
            FaultEvent(19.5, "reboot", 2))),
    },
    "bench": {
        "baseline": ("none", ()),
        "one_crash": ("one-crash", (_crash(54.0),)),
        "one_crash(1)": ("one-crash", (_crash(54.0, 1),)),
        "two_crashes": ("two-crashes", (_crash(48.0), _crash(54.0))),
        "sequential_crashes": ("sequential-crashes",
                               (_crash(24.0), _crash(72.0))),
        "partition": ("partition", (FaultEvent(
            48.0, "partition", 2, until=60.0),)),
        "partition(1, 300)": ("partition", (FaultEvent(
            48.0, "partition", 1, until=108.0),)),
        "retry_storm": ("retry-storm", (FaultEvent(
            48.0, "retrystorm", until=54.0, factor=8.0),)),
        "delayed_recovery": ("delayed-recovery", (
            _crash(48.0, 1), _crash(48.0, 2),
            FaultEvent(78.0, "reboot", 2))),
    },
    "paper": {
        "baseline": ("none", ()),
        "one_crash": ("one-crash", (_crash(270.0),)),
        "one_crash(1)": ("one-crash", (_crash(270.0, 1),)),
        "two_crashes": ("two-crashes", (_crash(240.0), _crash(270.0))),
        "sequential_crashes": ("sequential-crashes",
                               (_crash(120.0), _crash(360.0))),
        "partition": ("partition", (FaultEvent(
            240.0, "partition", 2, until=300.0),)),
        "partition(1, 300)": ("partition", (FaultEvent(
            240.0, "partition", 1, until=540.0),)),
        "retry_storm": ("retry-storm", (FaultEvent(
            240.0, "retrystorm", until=270.0, factor=8.0),)),
        "delayed_recovery": ("delayed-recovery", (
            _crash(240.0, 1), _crash(240.0, 2),
            FaultEvent(390.0, "reboot", 2))),
    },
}


def _resolve(scale: str, preset: str):
    experiment = PRESETS[preset](Experiment(SCALES[scale]()))
    faultload = experiment._resolve_faultload(experiment.build_config())
    return faultload.name, tuple(faultload.events)


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_resolves_to_pinned_faultload(scale, preset):
    assert _resolve(scale, preset) == PINNED[scale][preset]


#: ``repro run`` scenario name -> the Experiment preset it must match.
CLI_SCENARIOS = {
    "baseline": "baseline",
    "one_crash": "one_crash",
    "two_crashes": "two_crashes",
    "delayed": "delayed_recovery",
    "sequential": "sequential_crashes",
    "partition": "partition",
}


def test_cli_offers_exactly_these_scenarios():
    assert sorted(SCENARIOS) == sorted(CLI_SCENARIOS)


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("scenario", sorted(CLI_SCENARIOS))
def test_cli_scenario_resolves_like_its_experiment_method(scale, scenario,
                                                          capsys):
    args = build_parser().parse_args(["run", scenario, "--scale", scale])
    experiment = _build_experiment(args)
    _start(experiment, args, "running")
    faultload = experiment._resolve_faultload(experiment.build_config())
    assert ((faultload.name, tuple(faultload.events))
            == PINNED[scale][CLI_SCENARIOS[scenario]])


if __name__ == "__main__":
    for scale in SCALES:
        print(f"{scale}:")
        for preset in PRESETS:
            print(f"    {preset!r}: {_resolve(scale, preset)!r}")
