"""Automated incident post-mortems from flight-recorder evidence.

An *incident* is the causal story of one fault (or a burst of
overlapping faults): the trigger, how long it took the system to
notice, what the failover machinery did about it, what the outage cost
in the paper's performability currency (the WIPS dip area and lost
interactions), how the recovery decomposed into phases, and how much
of the run's error budget it burned.  :func:`build_incident_report`
derives all of that from artifacts an instrumented run already
produced -- the flight-recorder ring (:mod:`repro.obs.recorder`), the
recovery records and span marks (:func:`repro.obs.trace.recovery_phases`
is reused verbatim, so the phase numbers agree exactly with ``repro
trace --recovery-phases``), the interaction stream, and the SLO
engine's alerts and budget accounting (:mod:`repro.obs.slo`).

The report is deterministic: it is pure arithmetic over a
seed-deterministic run, dictionaries are built in sorted/event order,
and dumping with ``json.dumps(report, sort_keys=True)`` is bit-stable
across repeat runs.  :func:`render_markdown` turns the same structure
into the human-facing post-mortem that ``repro postmortem`` prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs import trace as obs_trace

__all__ = [
    "MissingRecorderError",
    "build_incident_report",
    "render_markdown",
]

#: Recorder kinds worth replaying in an incident timeline.
_TIMELINE_PREFIXES = (
    "fault.", "proxy.", "paxos.", "watchdog.", "recovery.",
    "checkpoint.", "txn.", "slo.", "server.",
)

#: Timeline length cap per incident (deterministic: earliest kept, the
#: dropped count is reported).
_TIMELINE_CAP = 200

_EPS = 1e-9


class MissingRecorderError(ValueError):
    """A post-mortem was requested on a run without a flight recorder."""


def _geo_placement(recorder) -> Dict[str, str]:
    """node -> datacenter, from the boot-time ``geo.placement`` event."""
    placement: Dict[str, str] = {}
    for event in recorder.select("geo.placement"):
        for name, dc in event.fields:
            placement[name] = dc
    return placement


def _slice_recoveries(recoveries: List[Dict[str, Any]], start: float,
                      end: float) -> List[Dict[str, Any]]:
    return [r for r in recoveries if start - _EPS <= r["crashed_at"] < end]


def _provisional_end(trigger, next_start: float,
                     recoveries: List[Dict[str, Any]],
                     heals: List[Any], measure_end: float) -> float:
    """When the system had fully absorbed ``trigger``.

    The latest of: every recovery this trigger caused reaching ready,
    and the fault's own heal event (a windowed partition, dcfail or
    wanpart closing): a heal of another kind on the same target, say a
    torn-write window closing, ends nothing here.  An unresolved trigger
    (replica never ready, partition never healed) keeps the incident
    open to the end of the measurement window.
    """
    candidates: List[float] = []
    unresolved = False
    for recovery in _slice_recoveries(recoveries, trigger.time, next_start):
        if recovery.get("ready_at") is None:
            unresolved = True
        else:
            candidates.append(recovery["ready_at"])
    for heal in heals:
        if trigger.time < heal.time < next_start and \
                heal.get("fault") == trigger.get("fault") and \
                heal.get("target") == trigger.get("target"):
            candidates.append(heal.time)
    if unresolved or not candidates:
        return measure_end
    return max(candidates)


def _segment_incidents(triggers, recoveries, heals, measure_end):
    """Greedy merge: a fault landing before the previous incident closed
    joins it (overlapping failures are one causal story)."""
    incidents: List[Dict[str, Any]] = []
    for index, trigger in enumerate(triggers):
        next_start = (triggers[index + 1].time
                      if index + 1 < len(triggers) else float("inf"))
        end = _provisional_end(trigger, next_start, recoveries, heals,
                               measure_end)
        if incidents and trigger.time <= incidents[-1]["end"] + _EPS:
            incidents[-1]["triggers"].append(trigger)
            incidents[-1]["end"] = max(incidents[-1]["end"], end)
        else:
            incidents.append({
                "start": trigger.time,
                "end": end,
                "triggers": [trigger],
            })
    return incidents


def _detection(recorder, slo, start: float, end: float,
               recoveries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Lag from injection to each detection signal (None = never seen).

    ``alert_lag_s`` is the ISSUE's headline number -- injection to the
    first SLO burn-rate alert; the watchdog and proxy lags are the
    infrastructure's own (pre-SLO) detectors, and ``lag_s`` is the
    earliest of whatever fired.
    """
    alert_t: Optional[float] = None
    if slo is not None:
        for alert in slo.alerts:
            if start - _EPS <= alert["t"] <= end + _EPS:
                alert_t = alert["t"]
                break
    proxy_t: Optional[float] = None
    downs = recorder.select("proxy.backend_down", start=start - _EPS,
                            end=end)
    if downs:
        proxy_t = downs[0].time
    watchdog_t: Optional[float] = None
    reboots = [r["rebooted_at"] for r in recoveries
               if r.get("rebooted_at") is not None]
    if reboots:
        watchdog_t = min(reboots)
    lags = {
        "slo_alert": alert_t - start if alert_t is not None else None,
        "proxy_backend_down": proxy_t - start if proxy_t is not None else None,
        "watchdog_reboot": (watchdog_t - start
                            if watchdog_t is not None else None),
    }
    observed = [lag for lag in lags.values() if lag is not None]
    return {
        "alert_lag_s": lags["slo_alert"],
        "lag_s": min(observed) if observed else None,
        "signals": lags,
    }


def _timeline(recorder, start: float, end: float) -> Dict[str, Any]:
    events = []
    for event in recorder.select(start=start - _EPS, end=end + _EPS):
        if event.kind.startswith(_TIMELINE_PREFIXES):
            events.append(event.to_dict())
    dropped = max(0, len(events) - _TIMELINE_CAP)
    return {"events": events[:_TIMELINE_CAP], "dropped": dropped}


def _impact(result, start: float, end: float) -> Dict[str, Any]:
    """The paper's performability currency for [start, end].

    For a single-fault run this window *is* the recovery window
    ([first crash, last ready]), so ``awips``/``lost_interactions``
    agree exactly with ``recovery_window()`` and the figure-5 numbers.
    """
    clamped_end = min(end, result.measure_end)
    stats = result.window_between(start, clamped_end)
    baseline = result.failure_free_window()
    duration = max(0.0, clamped_end - start)
    dip_area = (baseline.awips - stats.awips) * duration
    return {
        "window": [start, clamped_end],
        "duration_s": duration,
        "failure_free_awips": round(baseline.awips, 3),
        "awips": round(stats.awips, 3),
        "completed": stats.completed,
        "errors": stats.errors,
        "wips_dip_area": round(dip_area, 3),
        "lost_interactions": max(0, int(round(dip_area))),
    }


def _classify(trigger_dicts: List[Dict[str, Any]]) -> str:
    """One label for what kind of incident this was.

    ``retry_storm`` wins over everything else: a storm that also
    involves crashes is still a storm story (the crashes are casualties,
    not the cause the defenses answer to).
    """
    faults = {t["fault"] for t in trigger_dicts}
    if "retrystorm" in faults:
        return "retry_storm"
    if faults & {"partition", "wanpart"}:
        return "partition"
    if "dcfail" in faults:
        return "dc_outage"
    return "crash_failover"


def _trigger_dict(trigger, placement: Dict[str, str]) -> Dict[str, Any]:
    entry = trigger.to_dict()
    dc = entry.get("dc")
    if dc is None and placement:
        target = str(entry.get("target", ""))
        # crash targets are replica indexes ("1", "0.2"); map through
        # the node name the group gave them.
        shard, _, index = target.rpartition(".")
        node = (f"s{shard}.replica{index}" if shard else f"replica{index}")
        dc = placement.get(node)
        if dc is not None:
            entry["dc"] = dc
    return entry


def _incident_dcs(triggers: List[Dict[str, Any]],
                  recoveries: List[Dict[str, Any]],
                  placement: Dict[str, str]) -> List[str]:
    dcs = set()
    for trigger in triggers:
        if trigger.get("dc"):
            dcs.add(trigger["dc"])
        for peer in trigger.get("peer_dcs") or ():
            dcs.add(peer)
    for recovery in recoveries:
        dc = placement.get(recovery["node"])
        if dc:
            dcs.add(dc)
    return sorted(dcs)


def build_incident_report(result) -> Dict[str, Any]:
    """The full post-mortem for one run, as a deterministic dict."""
    recorder = getattr(result, "flight", None)
    if recorder is None:
        raise MissingRecorderError(
            "this run has no flight recorder; enable it with "
            "Experiment(...).record() / .slo() or run `repro postmortem`")
    slo = getattr(result, "slo", None)
    placement = _geo_placement(recorder)

    # The faults that can open an outage or trigger metastability open
    # an incident.  Message/storage nemesis kinds (drop/dup/delay/torn/
    # ...) degrade but do not partition the timeline; they show up
    # inside incident timelines, not as triggers.  (Imported here:
    # repro.faults imports the stack that imports repro.obs.)
    from repro.faults.faultload import KINDS
    triggers = [event for event in recorder.select("fault.inject")
                if KINDS[event["fault"]].outage
                or KINDS[event["fault"]].trigger]
    heals = recorder.select("fault.heal")
    segments = _segment_incidents(triggers, result.recoveries, heals,
                                  result.measure_end)

    incidents: List[Dict[str, Any]] = []
    for number, segment in enumerate(segments, start=1):
        start, end = segment["start"], segment["end"]
        trigger_kinds = {t.get("fault") for t in segment["triggers"]}
        if "retrystorm" in trigger_kinds:
            verdict = result._metastability_or_none()
            if verdict is not None and verdict.verdict == "metastable":
                # The storm outlived its trigger: the heal event did not
                # end the outage, so the incident runs to the end of the
                # measurement window.
                end = max(end, result.measure_end)
        recoveries = _slice_recoveries(result.recoveries, start, end + _EPS)
        phases: Optional[List[Dict[str, Any]]] = None
        if result.spans is not None:
            phases = obs_trace.recovery_phases(result.spans, recoveries)
        trigger_dicts = [_trigger_dict(t, placement)
                         for t in segment["triggers"]]
        budget = None
        if slo is not None:
            budget = slo.window_burn(
                start, min(end, result.measure_end),
                (result.measure_start, result.measure_end))
        classification = _classify(trigger_dicts)
        metastability = None
        if classification == "retry_storm":
            verdict = result._metastability_or_none()
            if verdict is not None:
                metastability = verdict.to_dict()
        incidents.append({
            "id": number,
            "start": start,
            "end": end,
            "duration_s": end - start,
            "classification": classification,
            "triggers": trigger_dicts,
            "dcs": _incident_dcs(trigger_dicts, recoveries, placement),
            "detection": _detection(recorder, slo, start, end, recoveries),
            "timeline": _timeline(recorder, start, end),
            "recoveries": [dict(r) for r in recoveries],
            "recovery_phases": phases,
            "impact": _impact(result, start, end),
            "budget": budget,
            "metastability": metastability,
        })

    report: Dict[str, Any] = {
        "faultload": result.faultload_name,
        "config": {
            "replicas": result.config.replicas,
            "shards": result.config.shards,
            "seed": result.config.seed,
            "offered_wips": result.config.offered_wips,
            "time_div": result.config.scale.time_div,
        },
        "measure_window": [result.measure_start, result.measure_end],
        "faults_injected": result.faults_injected,
        "interventions": result.interventions,
        "incidents": incidents,
        "slo": (slo.report(result.measure_start, result.measure_end)
                if slo is not None else None),
        "safety_violations": (len(result.safety_violations)
                              if result.safety_violations is not None
                              else None),
        "recorder": {
            "recorded": recorder.recorded,
            "evicted": recorder.evicted,
            "capacity": recorder.capacity,
        },
    }
    return report


# ----------------------------------------------------------------------
# markdown rendering
# ----------------------------------------------------------------------

def _fmt_s(value: Optional[float]) -> str:
    if value is None:
        return "never"
    if value < 1.0:
        return f"{value * 1000.0:.1f} ms"
    return f"{value:.2f} s"


def _render_incident(incident: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    lines.append(f"## Incident {incident['id']}: "
                 f"{', '.join(t['fault'] for t in incident['triggers'])} "
                 f"at t={incident['start']:.2f}s")
    lines.append("")
    lines.append(f"- **Window:** t={incident['start']:.2f}s -> "
                 f"t={incident['end']:.2f}s "
                 f"({_fmt_s(incident['duration_s'])})")
    if incident.get("classification"):
        lines.append(f"- **Classification:** "
                     f"`{incident['classification']}`")
    meta = incident.get("metastability")
    if meta is not None:
        recovered = ("never" if meta["recovered_at"] is None
                     else f"at t={meta['recovered_at']:.2f}s")
        lines.append(f"- **Metastability oracle:** `{meta['verdict']}` -- "
                     f"post-heal goodput "
                     f"{100.0 * meta['post_heal_ratio']:.1f}% of the "
                     f"{meta['baseline_wips']:.1f} WIPS baseline, "
                     f"recovered {recovered}")
    for trigger in incident["triggers"]:
        where = f" target={trigger.get('target')}" \
            if trigger.get("target") not in (None, "") else ""
        dc = f" dc={trigger['dc']}" if trigger.get("dc") else ""
        lines.append(f"- **Trigger:** `{trigger['fault']}` at "
                     f"t={trigger['t']:.2f}s{where}{dc}")
    if incident["dcs"]:
        lines.append(f"- **Datacenters involved:** "
                     f"{', '.join(incident['dcs'])}")
    detection = incident["detection"]
    lines.append(f"- **Detection lag:** {_fmt_s(detection['lag_s'])} "
                 f"(SLO alert: {_fmt_s(detection['alert_lag_s'])}, "
                 f"watchdog: "
                 f"{_fmt_s(detection['signals']['watchdog_reboot'])}, "
                 f"proxy: "
                 f"{_fmt_s(detection['signals']['proxy_backend_down'])})")
    impact = incident["impact"]
    lines.append(f"- **Impact:** AWIPS {impact['failure_free_awips']:.1f} "
                 f"-> {impact['awips']:.1f} over "
                 f"{_fmt_s(impact['duration_s'])}; "
                 f"~{impact['lost_interactions']} interactions lost "
                 f"(dip area {impact['wips_dip_area']:.1f}), "
                 f"{impact['errors']} errors")
    if incident["budget"]:
        spent = ", ".join(
            f"{entry['objective']}: {100.0 * entry['budget_burn']:.1f}%"
            for entry in incident["budget"])
        lines.append(f"- **Error budget burned:** {spent}")
    lines.append("")

    if incident["recovery_phases"]:
        lines.append("### Recovery phases")
        lines.append("")
        lines.append("| node | total | detection | election | checkpoint "
                     "| catchup | replay |")
        lines.append("|---|---|---|---|---|---|---|")
        for phase in incident["recovery_phases"]:
            cells = phase["phases"]
            lines.append(
                f"| {phase['node']} | {_fmt_s(phase['total_s'])} "
                f"| {_fmt_s(cells['detection'])} "
                f"| {_fmt_s(cells['election'])} "
                f"| {_fmt_s(cells['checkpoint'])} "
                f"| {_fmt_s(cells['catchup'])} "
                f"| {_fmt_s(cells['replay'])} |")
        lines.append("")
    elif incident["recoveries"]:
        lines.append("### Recoveries")
        lines.append("")
        for recovery in incident["recoveries"]:
            ready = recovery.get("ready_at")
            took = (_fmt_s(ready - recovery["crashed_at"])
                    if ready is not None else "never recovered")
            lines.append(f"- `{recovery['node']}` crashed at "
                         f"t={recovery['crashed_at']:.2f}s, {took}")
        lines.append("")

    timeline = incident["timeline"]
    if timeline["events"]:
        lines.append("### Failover timeline")
        lines.append("")
        for event in timeline["events"]:
            node = f" `{event['node']}`" if event.get("node") else ""
            extras = ", ".join(
                f"{key}={value}" for key, value in sorted(event.items())
                if key not in ("t", "kind", "node", "seq"))
            suffix = f" ({extras})" if extras else ""
            lines.append(f"- t={event['t']:.3f}s **{event['kind']}**"
                         f"{node}{suffix}")
        if timeline["dropped"]:
            lines.append(f"- ... {timeline['dropped']} more events "
                         f"(ring dump has the full record)")
        lines.append("")
    return lines


def render_markdown(report: Dict[str, Any]) -> str:
    """The post-mortem as markdown (what ``repro postmortem`` prints)."""
    config = report["config"]
    lines: List[str] = []
    lines.append(f"# Post-mortem: faultload `{report['faultload']}`")
    lines.append("")
    lines.append(f"- **Cluster:** {config['replicas']} replicas x "
                 f"{config['shards']} shard(s), seed {config['seed']}, "
                 f"{config['offered_wips']:.0f} offered WIPS "
                 f"(time compression {config['time_div']:.0f}x)")
    lines.append(f"- **Faults injected:** {report['faults_injected']} "
                 f"(operator interventions: {report['interventions']})")
    if report["safety_violations"] is not None:
        verdict = ("none" if report["safety_violations"] == 0
                   else f"**{report['safety_violations']}**")
        lines.append(f"- **Safety violations:** {verdict}")
    recorder = report["recorder"]
    lines.append(f"- **Flight recorder:** {recorder['recorded']} events "
                 f"({recorder['evicted']} evicted, "
                 f"capacity {recorder['capacity']})")
    lines.append("")

    slo = report["slo"]
    if slo is not None:
        lines.append(f"## SLO verdict: "
                     f"{'PASS' if slo['pass'] else '**FAIL**'}")
        lines.append("")
        lines.append("| objective | SLI (bad fraction) | budget "
                     "| burn | alerts | verdict |")
        lines.append("|---|---|---|---|---|---|")
        for entry in slo["objectives"]:
            lines.append(
                f"| `{entry['name']}` | {entry['sli_bad_fraction']:.4%} "
                f"| {entry['budget']:.2%} "
                f"| {entry['budget_burn']:.2f}x | {entry['alerts']} "
                f"| {'pass' if entry['pass'] else 'FAIL'} |")
        lines.append("")

    if not report["incidents"]:
        lines.append("No incidents: no crash/partition faults fired "
                     "inside the run.")
        lines.append("")
    for incident in report["incidents"]:
        lines.extend(_render_incident(incident))
    return "\n".join(lines).rstrip() + "\n"
