"""A miniature experiment configuration so harness tests run in seconds.

``tiny_scale`` is now a first-class preset in :mod:`repro.harness.config`;
this module re-exports it for the existing test imports.
"""

from repro.harness.config import ClusterConfig, tiny_scale
from repro.harness.experiment import Experiment

__all__ = ["tiny_config", "tiny_experiment", "tiny_scale"]


def tiny_config(**overrides) -> ClusterConfig:
    defaults = dict(replicas=5, num_ebs=30, profile="shopping",
                    offered_wips=1900.0, scale=tiny_scale(), seed=42)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def tiny_experiment(**overrides) -> Experiment:
    """``Experiment.from_config(tiny_config(**overrides))``: chain a
    scenario and ``.run()``."""
    return Experiment.from_config(tiny_config(**overrides))
