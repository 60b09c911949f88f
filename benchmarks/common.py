"""Shared infrastructure for the benchmark suite.

Every benchmark reproduces one table or figure of the paper.  Experiments
are cached per-session (several tables read the same faultload runs), all
output is written both to ``bench_reports/`` and to the real stdout (so it
survives pytest's capture into ``bench_output.txt``), and the scale is the
compressed ``bench_scale`` unless ``REPRO_FULL_SCALE=1``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, Tuple

from repro.harness.config import ClusterConfig, active_scale
from repro.harness.experiment import PRESETS, Experiment
from repro.harness.experiments import ExperimentResult

REPORT_DIR = Path(__file__).resolve().parent.parent / "bench_reports"

_CACHE: Dict[Tuple[str, ClusterConfig], ExperimentResult] = {}

#: Replica counts for the Figure 3/4 sweeps (the paper sweeps 4..12; the
#: bench uses the endpoints and midpoint unless REPRO_FULL_SWEEP=1).
def sweep_replicas():
    if os.environ.get("REPRO_FULL_SWEEP"):
        return (4, 5, 6, 7, 8, 9, 10, 11, 12)
    return (4, 8, 12)


def scale():
    return active_scale()


def experiment(kind: str, **config_overrides) -> ExperimentResult:
    """Run (or fetch from cache) one experiment: ``kind`` names a
    scenario preset (:data:`repro.harness.experiment.PRESETS`).

    The cache key is the scenario and the whole *resolved* configuration
    (a frozen, hashable ``ClusterConfig``), so spelling a default
    explicitly (e.g. ``num_ebs=30``) still hits the cache and no field
    is left out of it.
    """
    if kind not in PRESETS:
        raise ValueError(f"unknown scenario preset {kind!r} "
                         f"(expected one of {', '.join(PRESETS)})")
    config = ClusterConfig(scale=scale(), **config_overrides)
    key = (kind, config)
    if key not in _CACHE:
        _CACHE[key] = getattr(Experiment.from_config(config), kind)().run()
    return _CACHE[key]


def emit(name: str, text: str) -> None:
    """Write a report to bench_reports/<name>.txt and the real stdout."""
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
    sys.__stdout__.write(f"\n{text}\n")
    sys.__stdout__.flush()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
