"""The metric tables: names, units, directions, domains, bounds, layers.

``BENCHMARK.json`` lists the same names (``ledger/tests/test_schema.py``
holds the two in step); this module adds what that file has no key for:
the time domain of each end-to-end metric, the layer and source of each
per-layer metric, and which end-to-end metric a layer should move.

Domains: *host* = wall seconds of the machine running the simulator
(noisy); *sim* = simulated seconds (the same seed gives the same value
bit for bit).

Sources: **T** = the traced run of a workload; **P** = a probe in
:mod:`ledger.probes` that drives one layer's public classes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str      # "lower" | "higher"
    domain: str      # "host" | "sim"
    bound: float     # tolerated worsening: share of the baseline, or
    absolute: bool = False   # ... an absolute difference when True
    # False: the metric is 0 or undefined on some workload, which the
    # driver's contract forbids for end_to_end, so BENCHMARK.json lists
    # it under per_layer and only ``ledger compare`` applies its bound.
    in_contract: bool = True


# Bounds follow the spread measured across ten seeds per workload
# (README, "Spreads and bounds"), capped at the contract's 0.25.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("host_s_per_sim_s", "s/s", "lower", "host", 0.20),
    EndToEnd("peak_rss_mb", "MB", "lower", "host", 0.10),
    EndToEnd("setup_s", "s", "lower", "host", 0.25),
    EndToEnd("awips", "1/s", "higher", "sim", 0.05),
    EndToEnd("wirt_p50_s", "s", "lower", "sim", 0.15),
    EndToEnd("wirt_p99_s", "s", "lower", "sim", 0.25),
    EndToEnd("error_share", "ratio", "lower", "sim", 0.0002,
             absolute=True, in_contract=False),
    EndToEnd("recovery_s", "s", "lower", "sim", 0.01, in_contract=False),
)


@dataclass(frozen=True)
class Layered:
    name: str
    unit: str
    better: str
    layer: str
    source: str      # "T" | "P"


def _layer(layer: str, source: str, *rows: Tuple[str, str, str]):
    return tuple(Layered(name, unit, better, layer, source)
                 for name, unit, better in rows)


PER_LAYER: Tuple[Layered, ...] = (
    _layer("sim.core", "T",
           ("sim.core.events", "count", "lower"),
           ("sim.core.host_us_per_event", "us", "lower"),
           ("sim.core.host_share", "ratio", "lower"))
    + _layer("sim.core", "P",
             ("probe.sim.core.timer_us", "us", "lower"),
             ("probe.sim.core.zero_delay_us", "us", "lower"),
             ("probe.sim.core.process_switch_us", "us", "lower"))
    + _layer("sim.network", "T",
             ("sim.network.messages", "count", "lower"),
             ("sim.network.msgs_per_interaction", "count", "lower"),
             ("wirt.network_s", "s", "lower"))
    + _layer("sim.network", "P",
             ("probe.sim.network.send_deliver_us", "us", "lower"))
    + _layer("sim.disk", "T",
             ("wirt.disk_s", "s", "lower"))
    + _layer("sim.disk", "P",
             ("probe.sim.disk.wal_append_us", "us", "lower"),
             ("probe.sim.disk.wal_appends_per_flush", "count", "higher"),
             ("probe.sim.disk.wal_append_sim_ms", "ms", "lower"))
    + _layer("paxos", "T",
             ("paxos.decisions", "count", "higher"),
             ("paxos.batches", "count", "lower"),
             ("paxos.cmds_per_batch", "count", "higher"),
             ("paxos.fast_accept_ratio", "ratio", "higher"),
             ("paxos.collisions_recovered", "count", "lower"),
             ("paxos.retries", "count", "lower"),
             ("paxos.phase1_runs", "count", "lower"),
             ("paxos.msgs_per_decision", "count", "lower"),
             ("paxos.host_share", "ratio", "lower"),
             ("wirt.quorum_s", "s", "lower"),
             ("recovery.election_s", "s", "lower"))
    + _layer("paxos", "P",
             ("probe.paxos.classic_commit_us", "us", "lower"),
             ("probe.paxos.fast_commit_us", "us", "lower"),
             ("probe.paxos.classic_commit_sim_ms", "ms", "lower"),
             ("probe.paxos.fast_commit_sim_ms", "ms", "lower"),
             ("probe.paxos.msgs_per_commit", "count", "lower"))
    + _layer("treplica", "T",
             ("treplica.applied_commands", "count", "higher"),
             ("treplica.apply_p50_s", "s", "lower"),
             ("treplica.apply_p99_s", "s", "lower"),
             ("treplica.checkpoints", "count", "higher"),
             ("treplica.checkpoint_mean_s", "s", "lower"),
             ("treplica.checkpoint_mean_mb", "MB", "lower"),
             ("treplica.remote_transfers", "count", "lower"),
             ("wirt.apply_s", "s", "lower"),
             ("recovery.checkpoint_s", "s", "lower"),
             ("recovery.catchup_s", "s", "lower"),
             ("recovery.replay_s", "s", "lower"),
             ("recovery_s", "s", "lower"))
    + _layer("treplica", "P",
             ("probe.treplica.snapshot_ms", "ms", "lower"),
             ("probe.treplica.restore_ms", "ms", "lower"),
             ("probe.treplica.snapshot_mb", "MB", "lower"))
    + _layer("tpcw", "P",
             ("probe.tpcw.read_interaction_us", "us", "lower"),
             ("probe.tpcw.write_action_us", "us", "lower"))
    + _layer("web", "T",
             ("web.forwarded", "count", "higher"),
             ("web.reroutes", "count", "lower"),
             ("web.no_backend", "count", "lower"),
             ("web.broken_connections", "count", "lower"),
             ("web.backend_removals", "count", "lower"),
             ("web.host_share", "ratio", "lower"),
             ("wirt.queueing_s", "s", "lower"),
             ("recovery.detection_s", "s", "lower"))
    + _layer("web", "P",
             ("probe.web.dispatch_us", "us", "lower"))
    + _layer("load", "T",
             ("load.attempted", "count", "higher"),
             ("load.timeouts", "count", "lower"),
             ("load.host_share", "ratio", "lower"),
             ("load.lateness_s", "s", "lower"),
             ("wirt.other_s", "s", "lower"),
             ("error_share", "ratio", "lower"))
    + _layer("shard", "T",
             ("shard.txn_started", "count", "higher"),
             ("shard.txn_commit_ratio", "ratio", "higher"),
             ("shard.txn_retries", "count", "lower"),
             ("shard.router_skew", "ratio", "lower"))
    + _layer("obs", "T",
             ("obs.overhead_pct", "%", "lower"),
             ("obs.spans", "count", "lower"),
             ("obs.recorded_events", "count", "lower"))
    + _layer("obs", "P",
             ("probe.obs.histogram_observe_ns", "ns", "lower"),
             ("probe.obs.recorder_record_ns", "ns", "lower"))
    + _layer("machine", "P",
             ("probe.calibration_s", "s", "lower"))
)

#: Which end-to-end metric each layer should move, on which workload --
#: written down before any optimisation is measured.
SHOULD_MOVE: Dict[str, str] = {
    "sim.core": "host_s_per_sim_s on all four, most on browse_steady; "
                "no sim metric may move",
    "sim.network": "host_s_per_sim_s on order_steady and shard_2pc; "
                   "wirt.network_s -> wirt_p50_s",
    "sim.disk": "wirt_p50_s, wirt_p99_s, awips on order_steady and "
                "shard_2pc; nothing on browse_steady",
    "paxos": "awips, wirt_p50_s on order_steady and shard_2pc; "
             "recovery.election_s -> recovery_s; host_s_per_sim_s on "
             "order_steady",
    "treplica": "recovery_s on crash_failover; host_s_per_sim_s and "
                "peak_rss_mb on order_steady; wirt_p99_s on order_steady",
    "tpcw": "host_s_per_sim_s on browse_steady (reads), order_steady "
            "(writes)",
    "web": "error_share, wirt_p99_s on crash_failover; wirt_p50_s on "
           "browse_steady",
    "load": "host_s_per_sim_s on crash_failover (open) against "
            "browse_steady (closed)",
    "shard": "awips, wirt_p99_s on shard_2pc only",
    "obs": "obs.overhead_pct itself on all four; with every observer "
           "off, host_s_per_sim_s must not move",
    "machine": "nothing: it normalises host numbers across machines",
}


def contract_end_to_end() -> Tuple[EndToEnd, ...]:
    """The end-to-end metrics ``BENCHMARK.json`` lists as such."""
    return tuple(m for m in END_TO_END if m.in_contract)
