"""The ``repro`` command line: ``run``, ``sweep``, ``report``, ``trace``,
``explore``, ``postmortem``.

::

    python -m repro run one_crash --replicas 5 --obs --obs-out tl.json
    python -m repro run --faultload 'crash@240:*,reboot@390:2'
    python -m repro run baseline --load open:wips=1900,population=1000000
    python -m repro run one_crash --slo 'wirt_p99<2s,error_rate<1%'
    python -m repro sweep speedup --profile ordering
    python -m repro report result.json --timeline
    python -m repro report result.json --metrics-out metrics.prom
    python -m repro trace sequential --recovery-phases
    python -m repro trace baseline --critical-path --export chrome --out t.json
    python -m repro postmortem one_crash --md incident.md --json incident.json
    python -m repro explore --shards 2 --replicas 3 --scale tiny \\
        --max-faults 1 --budget 64 --out coverage.json
    python -m repro run --faultload 'retrystorm@240-300:factor=8' --defend \\
        --load 'open:wips=1400,timeout=1.5,retry=expo:base=0.5,budget=10%'

The ``--load`` grammar picks the load model: ``closed`` (the paper's
RBE fleet; optional ``clients=N`` pins the fleet size) or
``open:wips=X,population=M[,arrival=poisson|deterministic]`` (aggregated
per-class arrival processes; ``population`` only sizes the emulated
user-id space, so a million users cost no more kernel events than a
hundred).

Every sub-command that runs a deployment (all but ``report``) builds its
:class:`~repro.harness.config.ClusterConfig` from the shared cluster
options in one place, :func:`_build_experiment`; ``sweep`` then varies
one field of that config per point.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import os
import re
import sys
from typing import Optional

from repro.harness import sweeps
from repro.harness.config import bench_scale, paper_scale, tiny_scale
from repro.harness.experiment import Experiment
from repro.harness.report import format_series, format_table
from repro.obs.trace import RECOVERY_PHASES

#: CLI scenario name -> Experiment builder method.
SCENARIOS = {
    "baseline": "baseline",
    "one_crash": "one_crash",
    "two_crashes": "two_crashes",
    "delayed": "delayed_recovery",
    "sequential": "sequential_crashes",
    "partition": "partition",
}

SWEEP_KINDS = ("speedup", "scaleup", "recovery")


def _scale_for(name: str):
    if name == "paper":
        return paper_scale()
    if name == "tiny":
        return tiny_scale()
    return bench_scale()


def _ensure_parent(path: str) -> None:
    """Create the parent directory of an output ``path`` if missing."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


# ======================================================================
# parser
# ======================================================================
def _add_cluster_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="shopping",
                        choices=["browsing", "shopping", "ordering"])
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--ebs", type=int, default=30,
                        help="emulated browsers for population sizing "
                             "(30/50/70 -> ~300/500/700 MB)")
    parser.add_argument("--offered-wips", type=float, default=1900.0)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--scale", choices=["tiny", "bench", "paper"],
                        default="bench")
    parser.add_argument("--no-fast", action="store_true",
                        help="disable Fast Paxos (classic rounds only)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the store over N independent "
                             "Paxos groups (repro.shard); 1 = the "
                             "paper's unsharded deployment")
    parser.add_argument("--load", metavar="SPEC", default=None,
                        help="load model: 'closed[:clients=N]' (default; "
                             "the paper's RBE fleet) or "
                             "'open:wips=X,population=M"
                             "[,arrival=poisson|deterministic]' "
                             "(aggregated open-loop arrivals; population "
                             "sizes the emulated user-id space only); "
                             "both accept ',timeout=S' (client timeout) "
                             "and ',retry=POLICY' where POLICY is "
                             "none | immediate | fixed:delay=S | "
                             "'expo:base=0.5,cap=8,budget=10%%' "
                             "(+attempts=N, jitter=on|off)")
    parser.add_argument("--defend", action="store_true",
                        help="enable the overload defense stack: server "
                             "admission control (bounded queue + CoDel + "
                             "deadline shedding), per-backend circuit "
                             "breakers, AIMD concurrency limit, proxy "
                             "redispatch budget, deadline propagation")
    parser.add_argument("--geo", metavar="SPEC", default=None,
                        help="stretch the cluster across datacenters "
                             "(repro.geo): 'dc0,dc1,dc2"
                             "[:placement=spread|leader-local|pinned]"
                             "[:quorum=majority|leader-local|flex:K]"
                             "[:wan=MS][:client=DC][:pin=DC|DC|..]'; "
                             "enables DC-scoped faultload kinds "
                             "(dcfail/wanpart/wandegrade)")
    parser.add_argument("--slo", metavar="SPEC", default=None,
                        help="judge the run against declarative SLOs "
                             "(repro.obs.slo): comma-separated objectives "
                             "'wirt_p99<2s,error_rate<1%%' or "
                             "'availability>99.9%%'; burn-rate alerts land "
                             "in the flight recorder (implied on) and the "
                             "result gains an SLO verdict")


def _add_scenario_options(parser: argparse.ArgumentParser,
                          default: str) -> None:
    """The scenario positional, the cluster options, and --faultload /
    --nemesis: the options of every sub-command that runs one
    experiment (run, trace, postmortem)."""
    parser.add_argument("scenario", nargs="?", choices=sorted(SCENARIOS),
                        default=default)
    _add_cluster_options(parser)
    parser.add_argument("--faultload", metavar="SPEC", default=None,
                        help="custom faultload, e.g. "
                             "'crash@240:*,crash@270:*,reboot@390:2' "
                             "(times in paper-timeline seconds; "
                             "overrides the scenario)")
    parser.add_argument("--nemesis", metavar="SPEC", default=None,
                        help="standing message/storage-fault schedule "
                             "applied on top of the faultload, e.g. "
                             "'drop@60-300:p=0.1,oneway@120-180:2>3' or "
                             "'corrupt@240:1,torn@200-400:2'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RobustStore dependability experiments "
                    "(run / sweep / trace / postmortem / explore / "
                    "report); every sub-command that runs a deployment "
                    "builds it from the shared cluster options through "
                    "one Experiment builder.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one experiment and print its dependability report")
    run.set_defaults(func=_cmd_run)
    _add_scenario_options(run, default="one_crash")
    run.add_argument("--timeline", action="store_true",
                     help="also print the WIPS timeline")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="write the full result summary as JSON")
    run.add_argument("--check-safety", action="store_true",
                     help="record decide/deliver/ack traces and run "
                          "the consensus safety checker on the run")
    run.add_argument("--obs", action="store_true",
                     help="enable observability: metrics registry, "
                          "sampled timeline, kernel profile")
    run.add_argument("--obs-tick", type=float, default=5.0, metavar="S",
                     help="timeline sampling tick in paper-timeline "
                          "seconds (default 5)")
    run.add_argument("--obs-out", metavar="PATH", default=None,
                     help="write the sampled timeline to PATH "
                          "(.csv for CSV, anything else JSON); "
                          "implies --obs")

    sweep = sub.add_parser(
        "sweep", help="run a figure-style parameter sweep")
    sweep.set_defaults(func=_cmd_sweep)
    sweep.add_argument("kind", choices=SWEEP_KINDS)
    _add_cluster_options(sweep)
    sweep.add_argument("--replicas-list", default="4,8,12", metavar="N,N,..",
                       help="replica counts for speedup/scaleup sweeps")
    sweep.add_argument("--ebs-list", default="30,50,70", metavar="N,N,..",
                       help="EB counts (state sizes) for recovery sweeps")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the sweep points as JSON")

    trace = sub.add_parser(
        "trace", help="run one traced experiment and analyze its spans")
    trace.set_defaults(func=_cmd_trace)
    _add_scenario_options(trace, default="sequential")
    trace.add_argument("--critical-path", action="store_true",
                       help="print the WIRT critical-path decomposition "
                            "(per-bucket quantiles and shares)")
    trace.add_argument("--recovery-phases", action="store_true",
                       help="print detection/election/checkpoint/"
                            "catchup/replay per recovery window")
    trace.add_argument("--export", choices=["chrome", "jsonl"],
                       default=None,
                       help="also export the raw spans: 'chrome' writes "
                            "Perfetto-loadable trace-event JSON, 'jsonl' "
                            "one span/mark per line")
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="output path for --export (parent "
                            "directories are created)")

    postmortem = sub.add_parser(
        "postmortem", help="run one fault scenario with the flight "
                           "recorder, span tracing, and the SLO engine "
                           "on, and print the automated incident "
                           "post-mortem (trigger, detection lag, "
                           "failover timeline, WIPS dip, recovery "
                           "phases, budget burned)")
    postmortem.set_defaults(func=_cmd_postmortem)
    _add_scenario_options(postmortem, default="one_crash")
    postmortem.add_argument("--json", metavar="PATH", default=None,
                            help="also write the deterministic JSON "
                                 "incident report")
    postmortem.add_argument("--md", metavar="PATH", default=None,
                            help="also write the rendered markdown "
                                 "post-mortem")
    postmortem.add_argument("--events-out", metavar="PATH", default=None,
                            help="also dump the flight-recorder ring "
                                 "as JSONL")

    explore = sub.add_parser(
        "explore", help="systematically explore the 2PC fault space "
                        "(trace-derived crash/drop points, prefix-pruned "
                        "search, counterexample shrinking)")
    explore.set_defaults(func=_cmd_explore)
    _add_cluster_options(explore)
    explore.add_argument("--max-faults", type=int, default=1, metavar="K",
                         help="search fault combinations up to K faults "
                              "per schedule (default 1: the full "
                              "single-fault sweep)")
    explore.add_argument("--budget", type=int, default=64, metavar="N",
                         help="cap on executed experiments; schedules "
                              "skipped for budget are counted in the "
                              "report, never silently dropped")
    explore.add_argument("--interaction", action="append", default=None,
                         metavar="NAME",
                         help="interaction class(es) to enumerate points "
                              "for (repeatable; default buy_confirm)")
    explore.add_argument("--out", metavar="PATH", default=None,
                         help="write the JSON coverage report "
                              "(points, runs, counters, violations)")

    report = sub.add_parser(
        "report", help="re-render a saved `repro run --json` result")
    report.set_defaults(func=_cmd_report)
    report.add_argument("paths", nargs="+", metavar="path",
                        help="JSON file(s) written by `repro run --json` "
                             "(globs accepted)")
    report.add_argument("--timeline", action="store_true",
                        help="also print the WIPS timeline")
    report.add_argument("--series", metavar="NAME", default=None,
                        help="print one observability series from the "
                             "saved timeline (e.g. paxos.decisions)")
    report.add_argument("--aggregate", action="store_true",
                        help="fold the per-shard timelines of sharded "
                             "run(s) into one cluster-level WIPS/WIRT "
                             "series (inputs must share a shard count)")
    report.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="export the saved metrics snapshot as a "
                             "Prometheus textfile (node_exporter "
                             "textfile-collector format; the input must "
                             "be a `repro run --obs --json` result)")
    return parser


# ======================================================================
# load spec
# ======================================================================
#: --load key -> Experiment.load() keyword + coercion.
_LOAD_KEYS = {
    "wips": ("wips", float),
    "population": ("population", int),
    "clients": ("clients", int),
    "arrival": ("arrival", str),
    "timeout": ("timeout_s", float),
    "retry": ("retry", str),
}

#: Retry-grammar sub-options: a comma chunk with one of these keys
#: continues the preceding ``retry=`` value instead of starting a new
#: --load option, so 'retry=expo:base=0.5,cap=8,budget=10%' stays one
#: policy spec.
_RETRY_CONT_KEYS = frozenset(
    {"base", "cap", "delay", "attempts", "jitter", "budget"})


def _parse_load_spec(spec: str) -> dict:
    """``--load`` SPEC -> kwargs for :meth:`Experiment.load`.

    Grammar: ``closed[:clients=N]`` or
    ``open:wips=X,population=M[,arrival=poisson|deterministic]``, plus
    ``timeout=S`` and ``retry=POLICY`` for either mode (POLICY in the
    :func:`repro.resilience.parse_retry` grammar; its own
    comma-separated options ride along as continuations).
    ``wips`` stays absent unless spelled out, so :func:`_build_experiment`
    can fall back to ``--offered-wips`` and ``sweep speedup`` can tell
    an explicit offered load from its own load law.
    """
    mode, _, rest = spec.partition(":")
    if mode not in ("closed", "open"):
        raise ValueError(f"load mode must be 'closed' or 'open', "
                         f"got {mode!r}")
    kwargs = {"mode": mode}
    retry_open = False
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if retry_open and sep and key in _RETRY_CONT_KEYS:
            # First option after a bare kind opens the option list.
            joiner = "," if ":" in kwargs["retry"] else ":"
            kwargs["retry"] = f"{kwargs['retry']}{joiner}{part}"
            continue
        if not sep or key not in _LOAD_KEYS:
            known = ", ".join(sorted(_LOAD_KEYS))
            raise ValueError(f"bad --load option {part!r} "
                             f"(expected key=value with key in {known})")
        retry_open = key == "retry"
        name, coerce = _LOAD_KEYS[key]
        try:
            kwargs[name] = coerce(value)
        except ValueError:
            raise ValueError(f"bad --load value {part!r}") from None
    return kwargs


def _dc_list(value: str) -> tuple:
    """``dc0|dc1|..`` -> ``("dc0", "dc1", ..)``."""
    return tuple(part.strip() for part in value.split("|") if part.strip())


#: --geo option key -> Experiment.geo() keyword + coercion.
_GEO_KEYS = {
    "placement": ("placement", str),
    "quorum": ("quorum", str),
    "wan": ("wan_ms", float),
    "client": ("client_dc", str),
    "pin": ("pinned", _dc_list),
}


def _parse_geo_spec(spec: str) -> dict:
    """``--geo`` SPEC -> kwargs for :meth:`Experiment.geo`.

    Grammar: a comma-separated list of datacenter names, then
    colon-separated ``key=value`` options: ``placement=``, ``quorum=``,
    ``wan=<one-way ms>``, ``client=<dc>``, ``pin=<dc>|<dc>|...``.
    A colon chunk without ``=`` continues the previous option's value,
    so ``quorum=flex:3`` parses as one option.
    """
    head, *rest = spec.split(":")
    dcs = tuple(part.strip() for part in head.split(",") if part.strip())
    if not dcs:
        raise ValueError(f"--geo needs at least one datacenter name "
                         f"before the options, got {spec!r}")
    options: list = []
    for chunk in rest:
        if "=" not in chunk and options:
            options[-1] = f"{options[-1]}:{chunk}"
        else:
            options.append(chunk)
    kwargs: dict = {"dcs": dcs}
    for option in options:
        key, sep, value = option.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ValueError(f"bad --geo option {option!r} "
                             f"(expected key=value)")
        if key not in _GEO_KEYS:
            known = ", ".join(sorted(_GEO_KEYS))
            raise ValueError(f"unknown --geo option {key!r} "
                             f"(expected one of {known})")
        name, coerce = _GEO_KEYS[key]
        try:
            kwargs[name] = coerce(value)
        except ValueError:
            raise ValueError(f"bad --geo value {option!r}") from None
    return kwargs


def _build_experiment(args) -> Experiment:
    """Cluster options -> Experiment, load routed through .load().

    The one place a command-line option becomes configuration: every
    sub-command that runs a deployment starts here."""
    experiment = Experiment(
        scale=_scale_for(args.scale), replicas=args.replicas,
        num_ebs=args.ebs, seed=args.seed, enable_fast=not args.no_fast,
        shards=args.shards)
    load_kwargs = _parse_load_spec(args.load or "closed")
    mode = load_kwargs.pop("mode")
    load_kwargs.setdefault("wips", args.offered_wips)
    experiment.load(mode, mix=args.profile, **load_kwargs)
    if args.defend:
        experiment.defend()
    if args.geo:
        experiment.geo(**_parse_geo_spec(args.geo))
    if args.slo:
        experiment.slo(args.slo)
    return experiment


def _usage_error(error) -> int:
    """Report a bad option on stderr; returns the exit status, 2."""
    print(f"error: {error}", file=sys.stderr)
    return 2


def _start(experiment: Experiment, args, verb: str,
           detail: Optional[str] = None) -> str:
    """Apply the scenario (or ``--faultload``) and ``--nemesis``, print
    the run's header line, and return the run's label.  ``detail``
    defaults to a description of the load."""
    if args.faultload is not None:
        experiment.faults(args.faultload)
        label = "custom"
    else:
        getattr(experiment, SCENARIOS[args.scenario])()
        label = args.scenario
    if args.nemesis:
        experiment.nemesis(args.nemesis)
    config = experiment.build_config()
    if detail is None:
        detail = (f"open loop, {config.effective_population:,} users @ "
                  f"{config.effective_offered_wips:.0f} WIPS"
                  if config.load_mode == "open"
                  else f"{config.num_rbes} RBEs")
    print(f"{verb} {label} | {config.replicas} replicas | "
          f"{config.profile} | {detail} | scale={config.scale.name}",
          flush=True)
    return label


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its parent directory."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2))


# ======================================================================
# run
# ======================================================================
def _summary_rows(data: dict) -> list:
    """The measure/value rows of a run summary, from
    ``ExperimentResult.to_dict()`` or the ``--json`` file it was saved
    to."""
    rows = [["AWIPS (measurement interval)", f"{data['awips']:.1f}"],
            ["CV", f"{data['cv']:.3f}"],
            ["mean WIRT", f"{data['mean_wirt_s'] * 1000:.1f} ms"],
            ["accuracy", f"{data['accuracy_pct']:.3f}%"],
            ["availability", f"{data['availability']:.4f}"]]
    if data.get("recovery_awips") is not None:
        rows += [["failure-free AWIPS", f"{data['failure_free_awips']:.1f}"],
                 ["recovery AWIPS", f"{data['recovery_awips']:.1f}"],
                 ["performability PV", f"{data['pv_pct']:+.1f}%"],
                 ["recovery times",
                  ", ".join(f"{t:.1f}s" for t in data["recovery_times_s"])],
                 ["faults / interventions",
                  f"{data['faults_injected']} / {data['interventions']}"]]
    nemesis = data.get("nemesis")
    if nemesis and (nemesis["dropped"] or nemesis["duplicated"]
                    or nemesis["delayed"]):
        rows += [["nemesis drop/dup/delay",
                  f"{nemesis['dropped']} / {nemesis['duplicated']} / "
                  f"{nemesis['delayed']} of {nemesis['messages_sent']} msgs"]]
    storage = data.get("storage")
    if storage:
        injected = (storage.get("torn_writes", 0)
                    + storage.get("corrupted_frames", 0)
                    + storage.get("corrupted_objects", 0)
                    + storage.get("lied_writes", 0))
        rows += [["storage faults injected", str(injected)],
                 ["storage repairs",
                  f"{storage.get('frames_dropped', 0)} frames dropped / "
                  f"{storage.get('checkpoint_discards', 0)} ckpt discards / "
                  f"{storage.get('peer_repairs', 0)} peer repairs"]]
    violations = data.get("safety_violations")
    if violations is not None:
        verdict = ("OK" if not violations
                   else f"{len(violations)} VIOLATION(S)")
        rows += [["safety checker", verdict]]
    slo = data.get("slo")
    if slo is not None:
        rows += [["SLO " + ("PASS" if slo["pass"] else "FAIL"),
                  f"{slo['total_budget_burn']:.2f}x budget burned, "
                  f"{len(slo['alerts'])} alert(s)"]]
    return rows


def _cmd_run(args) -> int:
    try:
        experiment = _build_experiment(args)
    except ValueError as error:
        return _usage_error(error)
    if args.check_safety:
        experiment.check_safety()
    if args.obs or args.obs_out:
        experiment.observe(tick_s=args.obs_tick)
    label = _start(experiment, args, "running")
    result = experiment.run()
    data = result.to_dict()
    print(format_table(f"{label} ({args.profile}, "
                       f"{args.replicas}R, {args.ebs} EB)",
                       ["measure", "value"], _summary_rows(data)))
    if args.timeline:
        print()
        print(format_series("WIPS timeline", result.wips_series(),
                            x_label="t(s)", y_label="WIPS"))
    if result.kernel_profile:
        profile = result.kernel_profile
        profile_rows = [
            [category, str(stats["events"]),
             f"{stats['wall_s'] * 1000:.1f} ms",
             f"{stats['wall_us_per_event']:.1f} us"]
            for category, stats in profile["by_category"].items()]
        print()
        print(format_table(
            f"kernel profile ({profile['events']} events, "
            f"{profile['events_per_sim_s']:.0f}/sim-s)",
            ["layer", "events", "wall", "per event"], profile_rows))
    if args.obs_out:
        if args.obs_out.endswith(".csv"):
            _write_text(args.obs_out, result.timeline.to_csv())
        else:
            _write_json(args.obs_out, data["timeline"])
        print(f"wrote timeline to {args.obs_out}")
    if args.json:
        _write_json(args.json, data)
        print(f"wrote {args.json}")
    if result.safety_violations:
        print("\nsafety violations:")
        for violation in result.safety_violations:
            print(f"  {violation}")
        return 1
    return 0


# ======================================================================
# sweep
# ======================================================================
def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_sweep(args) -> int:
    swept = args.ebs_list if args.kind == "recovery" else args.replicas_list
    option = "--ebs-list" if args.kind == "recovery" else "--replicas-list"
    values = _int_list(swept)
    if not values:
        return _usage_error(f"{option} {swept!r} names no points to sweep")
    try:
        base = _build_experiment(args).build_config()
        load = _parse_load_spec(args.load or "closed")
        if args.kind == "speedup" and "wips" in load:
            # The speedup law sets each point's offered load; a fixed one
            # would measure the scaleup curve under the speedup name.
            raise ValueError(
                f"sweep speedup offers "
                f"{sweeps.SPEEDUP_OFFERED_PER_REPLICA:g} WIPS per replica, "
                f"so --load takes no wips=; for a fixed offered load use "
                f"`sweep scaleup --offered-wips X`")
    except ValueError as error:
        return _usage_error(error)
    points = getattr(sweeps, f"{args.kind}_sweep")(base, values)
    if args.kind == "recovery":
        rows = [[str(point.num_ebs), f"{point.recovery_s:.1f}s",
                 f"{point.pv_pct:+.1f}%", f"{point.accuracy_pct:.3f}%"]
                for point in points]
        print(format_table(f"recovery sweep ({args.profile})",
                           ["EBs", "recovery", "PV", "accuracy"], rows))
    else:
        rows = [[str(point.replicas), f"{point.awips:.1f}",
                 f"{point.mean_wirt_ms:.1f} ms", f"{point.cv:.3f}"]
                for point in points]
        print(format_table(f"{args.kind} sweep ({args.profile})",
                           ["replicas", "AWIPS", "mean WIRT", "CV"], rows))
    if args.json:
        _write_json(args.json, [point.__dict__ for point in points])
        print(f"wrote {args.json}")
    return 0


# ======================================================================
# trace
# ======================================================================
def _cmd_trace(args) -> int:
    if args.export and not args.out:
        return _usage_error("--export needs --out PATH")
    try:
        experiment = _build_experiment(args).trace()
    except ValueError as error:
        return _usage_error(error)
    _start(experiment, args, "tracing")
    result = experiment.run()
    tracer = result.spans
    print(f"{len(tracer.spans)} spans, {len(tracer.marks)} marks"
          + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""))
    if result.slo is not None:
        slo = result.slo_report()
        print(f"SLO {'PASS' if slo['pass'] else 'FAIL'}: "
              f"{slo['total_budget_burn']:.2f}x budget burned, "
              f"{len(slo['alerts'])} alert(s)")

    both = not (args.critical_path or args.recovery_phases)
    if args.critical_path or both:
        report = result.critical_path()
        rows = [[bucket,
                 f"{row['p50'] * 1000:.1f} ms",
                 f"{row['p90'] * 1000:.1f} ms",
                 f"{row['p99'] * 1000:.1f} ms",
                 f"{row['mean'] * 1000:.1f} ms",
                 f"{row['share_pct']:.1f}%"]
                for bucket, row in report.bucket_quantiles().items()]
        print()
        print(format_table(
            f"WIRT critical path "
            f"({len(report.interactions)} interactions)",
            ["bucket", "p50", "p90", "p99", "mean", "share"], rows))
        split = report.network_split_totals()
        if split["wan"] > 0.0:
            network_s = split["intra"] + split["wan"]
            print(f"network split: intra-DC {split['intra']:.2f}s + "
                  f"WAN {split['wan']:.2f}s = {network_s:.2f}s "
                  f"({100.0 * split['wan'] / network_s:.1f}% WAN)")
    if args.recovery_phases or both:
        phases = result.recovery_phases()
        if not phases:
            if args.recovery_phases:
                print("\nno completed recoveries in this run "
                      "(pick a crash scenario, e.g. `repro trace "
                      "sequential`)")
        else:
            rows = [[entry["node"],
                     *(f"{entry['phases'][phase]:.2f}s"
                       for phase in RECOVERY_PHASES),
                     f"{entry['total_s']:.2f}s"]
                    for entry in phases]
            print()
            print(format_table(
                f"recovery phases ({len(phases)} recoveries)",
                ["node", *RECOVERY_PHASES, "total"], rows))

    if args.export:
        _write_text(args.out, json.dumps(tracer.to_chrome())
                    if args.export == "chrome" else tracer.to_jsonl())
        print(f"\nwrote {args.export} trace to {args.out}")
    return 0


# ======================================================================
# postmortem
# ======================================================================
#: The SLO the post-mortem run is judged against when --slo is absent:
#: the paper's 2 s WIRT ceiling at three nines plus a 1% error budget.
DEFAULT_POSTMORTEM_SLO = "wirt_p99<2s,error_rate<1%"


def _cmd_postmortem(args) -> int:
    from repro.obs.incident import render_markdown

    slo = args.slo or DEFAULT_POSTMORTEM_SLO
    try:
        experiment = _build_experiment(args).trace().record().slo(slo)
    except ValueError as error:
        return _usage_error(error)
    _start(experiment, args, "post-mortem of", detail=f"slo '{slo}'")
    result = experiment.run()
    report = result.incident_report()
    markdown = render_markdown(report)
    print()
    print(markdown, end="")
    if args.json:
        _write_text(args.json,
                    json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if args.md:
        _write_text(args.md, markdown)
        print(f"wrote {args.md}")
    if args.events_out:
        _ensure_parent(args.events_out)
        written = result.flight.dump(args.events_out)
        print(f"wrote {written} recorder events to {args.events_out}")
    return 0


# ======================================================================
# explore
# ======================================================================
def _cmd_explore(args) -> int:
    from repro.faults.explore import ExplorationRunner, explore

    interactions = tuple(args.interaction or ("buy_confirm",))
    try:
        config = _build_experiment(args).build_config()
        runner = ExplorationRunner(config, interactions=interactions)
    except ValueError as error:
        return _usage_error(error)
    print(f"exploring {', '.join(interactions)} | {config.shards} shards x "
          f"{config.replicas} replicas | scale={config.scale.name} | "
          f"max_faults={args.max_faults} budget={args.budget}", flush=True)
    report = explore(runner, max_faults=args.max_faults, budget=args.budget)
    counters = report.counters
    rows = [
        ["injection points (concrete)", str(counters["points_concrete"])],
        ["injection points (deduped)", str(counters["points_deduped"])],
        ["experiments executed", str(counters["executed"])],
        ["single-fault coverage", f"{report.coverage_pct:.1f}%"],
        ["pruned (violating prefix)", str(counters["pruned_prefix"])],
        ["skipped (budget)", str(counters["budget_skipped"])],
        ["shrink runs", str(counters["shrink_runs"])],
        ["violations", str(len(report.violations))],
    ]
    print(format_table(
        f"fault-space exploration (seed {config.seed})",
        ["measure", "value"], rows))
    stages = sorted({tuple(p["signature"]) for p in report.points})
    print("\nstages covered:")
    for interaction, stage, role in stages:
        print(f"  {interaction}: {stage} [{role}]")
    if args.out:
        _write_json(args.out, report.to_dict())
        print(f"\nwrote {args.out}")
    if report.violations:
        print("\nviolations (minimized, replayable):")
        for violation in report.violations:
            print(f"  {violation['minimal']}")
            for line in violation["safety"] + violation["liveness"]:
                print(f"    {line}")
        return 1
    return 0


# ======================================================================
# report
# ======================================================================
def _load_result(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _counter_rate(points):
    """Cumulative counter samples [[t, v], ...] -> per-second rates."""
    rates = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t1 > t0:
            rates.append((t1, (v1 - v0) / (t1 - t0)))
    return rates


def _shard_series(timeline: dict, stem: str) -> dict:
    """shard id -> points of ``shard.s<g>.<stem>`` in a saved timeline."""
    series = (timeline or {}).get("series", {})
    out = {}
    for name, payload in series.items():
        match = re.match(rf"shard\.s(\d+)\.{re.escape(stem)}$", name)
        if match:
            out[int(match.group(1))] = payload["points"]
    return out


def _geo_series(timeline: dict, stem: str) -> dict:
    """dc name -> points of ``geo.<dc>.<stem>`` in a saved timeline."""
    series = (timeline or {}).get("series", {})
    out = {}
    for name, payload in series.items():
        match = re.match(rf"geo\.([A-Za-z][A-Za-z0-9_-]*)\.{re.escape(stem)}$",
                         name)
        if match:
            out[match.group(1)] = payload["points"]
    return out


def _grouped_series(timeline: dict, stem: str):
    """(group label, group -> points): per-shard series when the run was
    sharded, else the per-datacenter series of a geo run."""
    shard = _shard_series(timeline, stem)
    if shard:
        return "shard", shard
    return "dc", _geo_series(timeline, stem)


def _cmd_report_aggregate(args) -> int:
    """Fold per-shard (or per-DC) timelines into cluster-level series."""
    results = [(path, _load_result(path)) for path in args.paths]
    by_shards = {path: data.get("config", {}).get("shards", 1)
                 for path, data in results}
    if len(set(by_shards.values())) > 1:
        detail = ", ".join(f"{path}: {count} shard(s)"
                           for path, count in by_shards.items())
        print(f"error: --aggregate needs inputs with one shard count, "
              f"got a mix ({detail})", file=sys.stderr)
        return 1

    cluster_wips = []   # one aggregated (t, wips) series per input
    cluster_wirt = []
    label = "shard"
    shard_awips: dict = {}
    for path, data in results:
        label, ok = _grouped_series(data.get("timeline"), "interactions_ok")
        _, wirt = _grouped_series(data.get("timeline"), "wirt_sum_s")
        if not ok:
            print(f"error: {path} has no per-shard or per-DC timeline; "
                  f"rerun with --shards k --obs --json "
                  f"(or --geo dc0,dc1,.. --obs --json)", file=sys.stderr)
            return 1
        rates = {g: _counter_rate(points) for g, points in ok.items()}
        ticks = min((len(r) for r in rates.values()), default=0)
        for g, shard_rates in sorted(rates.items()):
            awips = (sum(rate for _t, rate in shard_rates)
                     / len(shard_rates)) if shard_rates else 0.0
            shard_awips.setdefault(g, []).append(awips)
        cluster_wips.append([
            (rates[min(rates)][i][0],
             sum(rates[g][i][1] for g in rates))
            for i in range(ticks)])
        # mean WIRT per tick: summed response-time mass / summed count
        ok_deltas = {g: list(zip(points, points[1:]))
                     for g, points in ok.items()}
        wirt_deltas = {g: list(zip(points, points[1:]))
                       for g, points in wirt.items()}
        ticks_w = min((len(d) for d in wirt_deltas.values()), default=0)
        points_w = []
        for i in range(min(ticks, ticks_w)):
            count = sum(ok_deltas[g][i][1][1] - ok_deltas[g][i][0][1]
                        for g in wirt_deltas if g in ok_deltas)
            mass = sum(wirt_deltas[g][i][1][1] - wirt_deltas[g][i][0][1]
                       for g in wirt_deltas)
            if count > 0:
                points_w.append((wirt_deltas[min(wirt_deltas)][i][1][0],
                                 mass / count))
        cluster_wirt.append(points_w)

    # Across input files (e.g. seeds): average tick-by-tick.
    def _average(series_list):
        ticks = min((len(s) for s in series_list), default=0)
        return [(series_list[0][i][0],
                 sum(s[i][1] for s in series_list) / len(series_list))
                for i in range(ticks)]

    wips_series = _average(cluster_wips)
    wirt_series = _average([s for s in cluster_wirt if s] or [[]])
    shards = next(iter(by_shards.values()))
    rows = [[f"{label} {g} AWIPS",
             f"{sum(values) / len(values):.1f}"]
            for g, values in sorted(shard_awips.items())]
    total = sum(sum(values) / len(values) for values in shard_awips.values())
    rows.append([f"cluster AWIPS (sum of {label}s)", f"{total:.1f}"])
    groups = (f"{shards} shard(s)" if label == "shard"
              else f"{len(shard_awips)} datacenter(s)")
    print(format_table(
        f"aggregate of {len(results)} run(s) ({groups})",
        ["measure", "value"], rows))
    print()
    print(format_series(f"cluster WIPS (all {label}s)", wips_series,
                        x_label="t(s)", y_label="WIPS"))
    if wirt_series:
        print()
        print(format_series("cluster mean WIRT (s)", wirt_series,
                            x_label="t(s)", y_label="WIRT"))
    return 0


def _cmd_report(args) -> int:
    expanded = []
    for pattern in args.paths:
        matches = sorted(globlib.glob(pattern))
        if not matches:
            return _usage_error(f"no result files match {pattern!r} "
                                f"(write them with `repro run --json PATH`)")
        expanded.extend(matches)
    args.paths = expanded
    if args.aggregate:
        return _cmd_report_aggregate(args)
    if len(args.paths) > 1:
        return _usage_error("multiple result files need --aggregate")
    data = _load_result(args.paths[0])
    if args.metrics_out:
        snapshot = data.get("metrics")
        if not snapshot:
            print("error: no metrics snapshot in this result; rerun with "
                  "`repro run --obs --json PATH`", file=sys.stderr)
            return 1
        from repro.obs.registry import to_prometheus
        _write_text(args.metrics_out, to_prometheus(snapshot))
        print(f"wrote {args.metrics_out}")
    config = data.get("config", {})
    print(format_table(
        f"{data.get('faultload', 'run')} "
        f"({config.get('profile', '?')}, {config.get('replicas', '?')}R)",
        ["measure", "value"], _summary_rows(data)))
    if args.timeline and data.get("wips_series"):
        print()
        print(format_series("WIPS timeline",
                            [tuple(point) for point in data["wips_series"]],
                            x_label="t(s)", y_label="WIPS"))
    if args.series:
        timeline = data.get("timeline")
        if not timeline or args.series not in timeline.get("series", {}):
            names = ", ".join(sorted((timeline or {}).get("series", {})))
            print(f"series {args.series!r} not in this result "
                  f"(available: {names or 'none -- rerun with --obs'})")
            return 1
        points = [tuple(p) for p in timeline["series"][args.series]["points"]]
        print()
        print(format_series(args.series, points, x_label="t(s)",
                            y_label=args.series))
    return 0


# ======================================================================
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
