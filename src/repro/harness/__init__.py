"""Experiment harness: full RobustStore deployments and the paper's runs.

* :mod:`repro.harness.config` -- experiment scale presets and cluster
  configuration;
* :mod:`repro.harness.cluster` -- builds the complete deployment of
  Figure 2 for any shard count: replica groups (Treplica + bookstore +
  application server), the reverse proxy or shard router, client nodes
  running RBEs, watchdogs; also resolves every fault target to a node;
* :mod:`repro.harness.experiment` -- the fluent :class:`Experiment`
  builder, the one front door for every run: speedup (Fig. 3), scaleup
  (Fig. 4), one crash (Fig. 5/6, Tables 1/2), two crashes (Fig. 7,
  Tables 3/4), delayed recovery (Fig. 8, Tables 5/6);
* :mod:`repro.harness.experiments` -- the execution engine and
  :class:`ExperimentResult`;
* :mod:`repro.harness.cli` -- the ``repro`` command line (``run``,
  ``sweep``, ``report``, ``trace``, ``explore``, ``postmortem``), the
  only entry point: ``python -m repro <sub-command>``;
* :mod:`repro.harness.report` -- table and series renderers used by the
  benchmark suite.
"""

from repro.harness.config import (
    ClusterConfig,
    ExperimentScale,
    bench_scale,
    paper_scale,
    tiny_scale,
)
from repro.harness.cluster import RobustStoreCluster
from repro.harness.experiment import Experiment
from repro.harness.experiments import (
    ExperimentResult,
    MissingTraceError,
    MissingWindowError,
)

__all__ = [
    "ClusterConfig",
    "Experiment",
    "ExperimentResult",
    "ExperimentScale",
    "MissingTraceError",
    "MissingWindowError",
    "RobustStoreCluster",
    "bench_scale",
    "paper_scale",
    "tiny_scale",
]
