"""Read metrics, a digest and output checks off an ``ExperimentResult``.

Runs in the child, next to the result.  Only names the issue pins down
are touched (``collector.samples``, ``whole_window()``, ``to_dict()``,
``recovery_times()``, ``recoveries``, ``interventions``, ``nemesis``,
``metrics``, ``kernel_profile``, ``critical_path()``,
``recovery_phases()``, ``safety_violations``, ``flight``, ``spans``),
each through ``getattr`` with a default: a source that a later refactor
removes turns its metrics into ``None`` with a reason, never a crash.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Tuple

#: ``to_dict()`` keys that depend on which observers were switched on,
#: not on what the simulated system did.
DIGEST_SKIP = ("kernel_profile", "timeline", "metrics", "safety_violations",
               "flight_recorder", "slo")

WIRT_BUCKETS = ("queueing", "network", "disk", "quorum", "apply", "other")
RECOVERY_PHASES = ("detection", "election", "checkpoint", "catchup", "replay")


def percentile(sorted_values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending list (None when empty)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def digest(summary: Dict[str, Any]) -> str:
    """sha256 of a ``to_dict()`` summary minus the observer-dependent keys."""
    kept = {key: value for key, value in summary.items()
            if key not in DIGEST_SKIP}
    text = json.dumps(kept, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def end_to_end(result) -> Dict[str, Any]:
    """The sim-domain end-to-end metrics plus the counts behind them."""
    window = result.whole_window()
    samples = [s for s in result.collector.samples
               if window.start <= s[1] < window.end]
    latencies = sorted(done - sent for sent, done, _i, ok, _e in samples if ok)
    attempted = len(samples)
    failed = attempted - len(latencies)
    recoveries = result.recovery_times()
    return {
        "awips": window.awips,
        "wirt_p50_s": percentile(latencies, 0.50),
        "wirt_p99_s": percentile(latencies, 0.99),
        "error_share": failed / attempted if attempted else None,
        "recovery_s": max(recoveries) if recoveries else None,
        "attempted": attempted,
        "failed": failed,
        "samples": len(latencies),
        "timeouts": sum(1 for s in samples if s[4] == "timeout"),
    }


# ----------------------------------------------------------------------
# per-layer metrics from a traced run
# ----------------------------------------------------------------------
def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def traced_layers(result, e2e: Dict[str, Any]
                  ) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Source-T metrics: ``(values, reasons)``; ``reasons`` explains
    every ``None``."""
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}

    def put(name: str, value, why: str) -> None:
        values[name] = value
        if value is None:
            reasons[name] = why

    # kernel profile ---------------------------------------------------
    profile = getattr(result, "kernel_profile", None) or {}
    why = "the result carries no kernel_profile"
    events, wall_s = profile.get("events"), profile.get("wall_s")
    categories = profile.get("by_category") or {}
    put("sim.core.events", events, why)
    put("sim.core.host_us_per_event",
        None if wall_s is None else _ratio(1e6 * wall_s, events), why)
    for name, category in (("sim.core", "sim"), ("paxos", "paxos"),
                           ("web", "web"), ("load", "load")):
        spent = categories.get(category, {}).get("wall_s", 0.0)
        put(f"{name}.host_share", _ratio(spent if profile else None, wall_s),
            why)

    # network totals ---------------------------------------------------
    nemesis = getattr(result, "nemesis", None)
    messages = getattr(nemesis, "messages_sent", None)
    why = "the result carries no network totals (nemesis)"
    put("sim.network.messages", messages, why)
    put("sim.network.msgs_per_interaction",
        _ratio(messages, len(result.collector.samples)), why)

    # registry snapshot ------------------------------------------------
    registry = getattr(result, "metrics", None) or {}
    counters = registry.get("counters") or {}
    histograms = registry.get("histograms") or {}
    why = "the result carries no metrics snapshot"

    def counter(key: str):
        return counters.get(key, 0) if registry else None

    def histogram(key: str, field: str):
        return (histograms.get(key) or {}).get(field)

    decisions = counter("paxos.decisions")
    put("paxos.decisions", decisions, why)
    put("paxos.batches", counter("paxos.batches_flushed"), why)
    put("paxos.cmds_per_batch", histogram("paxos.batch_occupancy", "mean"),
        "no batch was flushed" if registry else why)
    rejected = _ratio(counter("paxos.fast_rejected"),
                      counter("paxos.fast_proposals"))
    put("paxos.fast_accept_ratio", None if rejected is None else 1 - rejected,
        "no fast proposal was made" if registry else why)
    put("paxos.collisions_recovered", counter("paxos.collisions_recovered"),
        why)
    put("paxos.retries", counter("paxos.retries"), why)
    put("paxos.phase1_runs", counter("paxos.phase1_runs"), why)
    # All network messages (web tier and heartbeats included) per
    # decision: the result does not split messages by port.
    put("paxos.msgs_per_decision", _ratio(messages, decisions),
        "no decision, or no network totals")
    put("treplica.applied_commands", counter("treplica.applied_commands"),
        why)
    put("treplica.apply_p50_s", histogram("treplica.apply_latency_s", "p50"),
        "no command was applied" if registry else why)
    put("treplica.apply_p99_s", histogram("treplica.apply_latency_s", "p99"),
        "no command was applied" if registry else why)
    put("treplica.checkpoints", counter("treplica.checkpoints"), why)
    put("treplica.checkpoint_mean_s",
        histogram("treplica.checkpoint_duration_s", "mean"),
        "no checkpoint was taken" if registry else why)
    put("treplica.checkpoint_mean_mb",
        histogram("treplica.checkpoint_size_mb", "mean"),
        "no checkpoint was taken" if registry else why)
    put("treplica.remote_transfers", counter("treplica.remote_transfers"),
        why)
    for name in ("forwarded", "reroutes", "no_backend", "broken_connections",
                 "backend_removals"):
        put(f"web.{name}", counter(f"web.proxy_{name}"), why)
    started = counters.get("shard.txn_started")
    unsharded = "not a sharded deployment" if registry else why
    put("shard.txn_started", started, unsharded)
    put("shard.txn_commit_ratio",
        _ratio(counters.get("shard.txn_committed"), started), unsharded)
    put("shard.txn_retries", counters.get("shard.txn_retries"), unsharded)
    hits = [value for key, value in counters.items()
            if key.startswith("shard.s") and key.endswith(".router_hits")]
    put("shard.router_skew",
        _ratio(max(hits), min(hits)) if hits else None, unsharded)

    # span analyses ----------------------------------------------------
    try:
        path = result.critical_path()
    except (AttributeError, ValueError):   # MissingTraceError is a ValueError
        path = None
    for bucket in WIRT_BUCKETS:
        put(f"wirt.{bucket}_s",
            None if path is None else
            _mean([entry["buckets"][bucket] for entry in path.interactions]),
            "the result carries no spans")
    try:
        phases = result.recovery_phases()
    except (AttributeError, ValueError):
        phases = None
    for phase in RECOVERY_PHASES:
        put(f"recovery.{phase}_s",
            None if phases is None else
            _mean([entry["phases"][phase] for entry in phases
                   if entry.get("ready_at") is not None]),
            "no recovery in this run" if phases is not None
            else "the result carries no spans")

    # load source and observers ----------------------------------------
    put("load.attempted", e2e["attempted"], "")
    put("load.timeouts", e2e["timeouts"], "")
    # In sim time the open-loop generator fires every arrival at its due
    # instant and WIRT is counted from there: lateness is 0 by construction.
    put("load.lateness_s", 0.0, "")
    put("error_share", e2e["error_share"], "no interaction in the window")
    put("recovery_s", e2e["recovery_s"], "no recovery in this run")
    spans = getattr(getattr(result, "spans", None), "spans", None)
    put("obs.spans", None if spans is None else len(spans),
        "the result carries no spans")
    put("obs.recorded_events",
        getattr(getattr(result, "flight", None), "recorded", None),
        "the result carries no flight recorder")
    return values, reasons


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
Check = Tuple[str, bool, str]   # (name, passed, detail)


def run_checks(steady: bool, sharded: bool, result, e2e: Dict[str, Any],
               summary: Dict[str, Any]) -> List[Check]:
    """What one run's outputs must satisfy, whatever the observers."""
    checks: List[Check] = []
    if steady:
        checks.append(("error_share_is_zero", e2e["failed"] == 0,
                       f"{e2e['failed']} of {e2e['attempted']} failed"))
        compliance = summary.get("wirt_compliance") or {}
        worst = min(compliance.values(), default=0.0)
        checks.append(("wirt_compliance_at_least_0.90", worst >= 0.90,
                       f"worst interaction {worst:.4f} over "
                       f"{len(compliance)} kinds"))
    else:
        ready = [r for r in result.recoveries if r["ready_at"] is not None]
        checks.append(("two_recoveries_reach_ready",
                       len(result.recoveries) == 2 and len(ready) == 2,
                       f"{len(ready)} of {len(result.recoveries)} ready"))
        checks.append(("no_interventions", result.interventions == 0,
                       f"{result.interventions} interventions"))
    violations = getattr(result, "safety_violations", None)
    if violations is not None:
        checks.append(("safety_violations_empty", violations == [],
                       f"{len(violations)} violations"))
    if sharded and getattr(result, "metrics", None):
        counters = result.metrics.get("counters") or {}
        started = counters.get("shard.txn_started", 0)
        ratio = _ratio(counters.get("shard.txn_committed", 0), started) or 0.0
        checks.append(("shard_txns_started_and_committing",
                       started > 0 and ratio > 0.5,
                       f"{started} started, commit ratio {ratio:.3f}"))
    return checks
