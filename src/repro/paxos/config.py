"""Tunables for the Paxos engine.

All timings are simulated seconds.  Defaults are calibrated for a LAN
cluster like the paper's (sub-millisecond network, ~4 ms fsync) and are the
same across every experiment -- per-figure tuning would defeat the
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Failure detection: a replica heartbeats its peers this often.
HEARTBEAT_INTERVAL_S = 0.25

# Retransmission of commands that have not been decided (covers leader
# crashes and lost fast-round collisions; delivery dedup makes it safe).
# The age is generous so transient queueing under saturation does not
# trigger retransmission storms.
RETRY_INTERVAL_S = 1.0
RETRY_AGE_S = 3.0

# Collision/gap handling.
GAP_TIMEOUT_S = 0.4

# Flow control on the fast path: at most this many fast proposals
# outstanding per proposer.  Bounds instance collisions under write
# contention; commands held back meanwhile coalesce into larger
# batches (self-regulating group commit).
FAST_WINDOW = 2

# Durability sizes.
PROMISE_ENTRY_MB = 0.0002


@dataclass(frozen=True)
class PaxosConfig:
    """Engine knobs; see field comments for the role each plays."""

    # Proposal batching (group commit on the ordering path).  Commands
    # submitted within one window ride the same consensus instance.
    batch_window_s: float = 0.004
    max_batch: int = 64

    # CPU cost charged on the hosting node per protocol message handled,
    # plus a small per-command marshalling cost.  These are what make
    # speedup sublinear as replicas are added (more Accepted traffic).
    cpu_per_message_s: float = 0.000045
    cpu_per_command_s: float = 0.000006

    # Failure detection (geo deployments stretch it with the WAN RTT).
    failure_timeout_s: float = 1.2

    # Learning (recovery resync and gap fill): decided-log slice size per
    # LearnRequest round-trip.
    learn_page: int = 512

    # Fast Paxos: enable fast rounds when enough replicas are up.  The
    # Treplica rule switches to classic below ceil(3N/4) live replicas and
    # blocks below a majority.
    enable_fast: bool = True

    # Flexible quorums (FPaxos): override the phase-1 (leader election /
    # recovery promise) and phase-2 (classic accept) quorum sizes.  The
    # engine enforces q1 + q2 > n so any election quorum intersects any
    # commit quorum, and requires enable_fast=False (the fast-round
    # quorum and recovery rule assume plain majorities).  Geo deployments
    # (repro.geo) derive these from the quorum-shape policy -- e.g. a
    # leader-local phase-2 quorum that never crosses the WAN.  None keeps
    # the classic n//2 + 1 majority.
    phase1_quorum: Optional[int] = None
    phase2_quorum: Optional[int] = None

    # DANGER -- mutation knob for checker-validity tests only.  Forcing a
    # classic quorum below the majority breaks the quorum-intersection
    # property, so independent coordinators can decide different values
    # for one instance.  The consensus safety checker
    # (repro.faults.checker) must flag such runs; production code must
    # leave this at None.
    classic_quorum_override: Optional[int] = None
