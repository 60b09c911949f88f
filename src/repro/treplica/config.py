"""Treplica runtime tunables (simulated seconds / MB)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.paxos.config import PaxosConfig

#: Checkpoint transfer chunk: the Paxos write-ahead log group-commits
#: between the chunks of a checkpoint write.
CHUNK_MB = 8.0
#: CPU per action whose class sets no ``Action.cpu_cost_s``.
DEFAULT_ACTION_CPU_S = 0.0003


def chunks_of(size_mb: float) -> Tuple[int, float]:
    """``(count, MB each)``: ``size_mb`` in the fewest equal chunks of
    at most :data:`CHUNK_MB`, at least one."""
    chunks = max(1, math.ceil(size_mb / CHUNK_MB))
    return chunks, size_mb / chunks


@dataclass(frozen=True)
class TreplicaConfig:
    """Middleware knobs layered over :class:`~repro.paxos.config.PaxosConfig`."""

    paxos: PaxosConfig = field(default_factory=PaxosConfig)

    # Checkpointing: period between snapshots and CPU cost to serialize
    # a MB of state (written in CHUNK_MB chunks).
    checkpoint_interval_s: float = 120.0
    checkpoint_cpu_s_per_mb: float = 0.004

    # Recovery: CPU cost to deserialize state.  Combined with the disk
    # read bandwidth this sets the paper's checkpoint-load rate; the
    # default lands near 8 MB/s effective, reproducing recovery times in
    # the tens of seconds for the paper's 300-700 MB states.
    restore_cpu_s_per_mb: float = 0.105

    # Decided-log retention (instances kept beyond the checkpoint) so
    # recovering peers can resynchronize from the queue instead of needing
    # a full remote state transfer.
    log_retain_instances: int = 50_000

    # Ablation knob: load the checkpoint *before* binding to the queue
    # (serializing the two recovery state transfers) instead of the
    # paper's parallel scheme.  Used by the recovery ablation bench.
    sequential_recovery: bool = False
