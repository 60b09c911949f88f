"""Systematic fault-space exploration with prefix-pruned search.

Turns the fault-injection harness from "replay the faultloads a human
wrote" into "enumerate every fault the protocol can suffer and test each
one" -- the Filibuster/LDFI style of systematic testing, specialized to
the simulator's determinism:

1. **Enumerate.**  A *golden* (faultless) run executes with span tracing
   on; :func:`repro.obs.trace.injection_points` walks its 2PC hop graph
   and yields one candidate fault per protocol step -- crash the
   coordinator or a participant before/after each durable write or
   send, or drop each message on each directed hop.  Because the
   simulator is seed-deterministic, the golden run's span times are
   valid injection times for a fresh run at the same seed.
2. **Dedupe.**  Concrete points with the same *signature*
   ``(interaction class, stage, role)`` are dynamically equivalent --
   they perturb the same protocol step, just on a different transaction
   or replica -- so only the earliest of each signature executes.
3. **Search.**  Breadth-first over schedules of 1..``max_faults``
   faults.  Each schedule runs as a fresh experiment and is judged by
   the consensus :class:`~repro.faults.checker.SafetyChecker` plus a
   **liveness oracle** (every crashed replica must re-converge; no
   prepared transaction may stay undecided).  A schedule that violates
   is never extended -- any super-schedule shares its prefix and would
   rediscover the same bug (*prefix pruning*) -- and extension points
   are re-derived from the parent run's own trace, so later faults land
   on the perturbed timeline, not the golden one.
4. **Shrink.**  A violating schedule is minimized by greedy
   delta-debugging (:func:`shrink`): drop one fault at a time while the
   violation still reproduces, to a 1-minimal counterexample, emitted
   as a replayable faultload string.

The search is bit-for-bit deterministic for a fixed seed: enumeration
order, execution order, and the coverage report all reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.obs.trace import InjectionPoint, injection_points

if TYPE_CHECKING:  # real imports are lazy: repro.harness.cluster imports
    # repro.faults, so a module-level import here would be circular.
    from repro.harness.config import ClusterConfig
    from repro.harness.experiment import Experiment
    from repro.harness.experiments import ExperimentResult

__all__ = [
    "ExplorationRunner",
    "ExploreReport",
    "Verdict",
    "dedupe_points",
    "explore",
    "schedule_spec",
    "shrink",
    "spec_of",
]


# ----------------------------------------------------------------------
# faultload synthesis (sim-time points -> replayable spec strings)
# ----------------------------------------------------------------------
def _target_of(node: str) -> str:
    """``s1.replica2`` -> the grammar's shard-qualified ``1.2``."""
    shard, _, replica = node.partition(".")
    if not shard.startswith("s") or not replica.startswith("replica"):
        raise ValueError(f"not a shard replica node name: {node!r}")
    return f"{shard[1:]}.{replica[len('replica'):]}"


def spec_of(point: InjectionPoint, time_div: float) -> str:
    """One injection point as a faultload-grammar event.

    Times convert from sim seconds back to the paper timeline (the spec
    parser divides by ``time_div`` again), rounded to 4 decimals --
    5e-6 sim-s of slack at tiny scale, well inside the margins the
    enumerator leaves around each protocol step.
    """
    at = point.at * time_div
    if point.kind == "crash":
        return f"crash@{at:.4f}:{_target_of(point.node)}"
    if point.kind == "drop":
        src, _, dst = point.node.partition("->")
        until = point.until * time_div
        return (f"drop@{at:.4f}-{until:.4f}"
                f":{_target_of(src)}>{_target_of(dst)}:p=1")
    raise ValueError(f"unknown injection kind: {point.kind!r}")


def schedule_spec(schedule: Sequence[InjectionPoint],
                  time_div: float) -> str:
    """A whole schedule as one replayable faultload string."""
    return ",".join(spec_of(point, time_div) for point in schedule)


def dedupe_points(points: Iterable[InjectionPoint]) -> List[InjectionPoint]:
    """Earliest concrete occurrence of each signature, time-ordered.

    The input order breaks ties (``injection_points`` returns points
    sorted by time), so the same golden run always yields the same
    representative set.
    """
    seen: Dict[Tuple[str, str, str], InjectionPoint] = {}
    for point in points:
        seen.setdefault(point.signature, point)
    return sorted(seen.values(), key=lambda p: (p.at, p.signature))


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Verdict:
    """What the safety checker and the liveness oracle said about a run."""

    safety: Tuple[str, ...] = ()
    liveness: Tuple[str, ...] = ()

    @property
    def violated(self) -> bool:
        return bool(self.safety or self.liveness)

    def to_dict(self) -> dict:
        return {"safety": list(self.safety), "liveness": list(self.liveness)}


class ExplorationRunner:
    """Builds and judges the seed-deterministic experiments the search
    executes.  One runner = one deployment configuration; every run it
    launches differs only in its faultload.
    """

    #: Enumerate only points this many sim-seconds before the end, so
    #: the run can still observe the recovery (watchdog reboot + orphan
    #: resolution).
    RECOVERY_HEADROOM_S = 12.0

    def __init__(self, config: Optional["ClusterConfig"] = None, *,
                 interactions: Iterable[str] = ("buy_confirm",)):
        from repro.harness.config import ClusterConfig, tiny_scale
        from repro.shard.txn import (MAX_RETRIES, ORPHAN_TIMEOUT_S,
                                     PREPARE_TIMEOUT_S)
        if config is None:
            config = ClusterConfig(scale=tiny_scale(), shards=2, replicas=3,
                                   offered_wips=400.0, seed=11)
        if config.shards < 2:
            raise ValueError(
                "fault-space exploration targets the cross-shard 2PC path; "
                "configure shards >= 2")
        self.config = config
        self.interactions = tuple(sorted(interactions))
        self.cutoff = config.scale.total_s - self.RECOVERY_HEADROOM_S
        # A prepared tx older than this at end-of-run counts as stuck:
        # the orphan timeout plus resolve round-trips, doubled.
        self.liveness_grace_s = 2.0 * (
            ORPHAN_TIMEOUT_S + (MAX_RETRIES + 1) * PREPARE_TIMEOUT_S)

    # -- experiment construction ---------------------------------------
    def _experiment(self) -> "Experiment":
        from repro.harness.experiment import Experiment
        return (Experiment.from_config(self.config)
                .trace().check_safety().keep_cluster())

    def golden(self) -> Tuple[ExperimentResult, List[InjectionPoint]]:
        """The faultless baseline plus every concrete injection point."""
        result = self._experiment().baseline().run()
        if result.safety_violations:
            raise RuntimeError(
                f"golden run is not clean: {result.safety_violations}")
        return result, self.extract(result)

    def extract(self, result: ExperimentResult) -> List[InjectionPoint]:
        """Concrete (un-deduped) injection points from a run's trace."""
        return injection_points(result.spans,
                                interactions=self.interactions,
                                cutoff=self.cutoff)

    def run(self, schedule: Sequence[InjectionPoint],
            ) -> Tuple[ExperimentResult, Verdict]:
        """Execute one fault schedule and judge it."""
        spec = schedule_spec(schedule, self.config.scale.time_div)
        result = self._experiment().faults(spec).run()
        return result, self.judge(result)

    def replay(self, spec: str) -> Tuple[ExperimentResult, Verdict]:
        """Execute a stored faultload string (regression corpus)."""
        result = self._experiment().faults(spec).run()
        return result, self.judge(result)

    # -- judging ---------------------------------------------------------
    def judge(self, result: ExperimentResult) -> Verdict:
        safety = tuple(str(v) for v in result.safety_violations or ())
        return Verdict(safety=safety,
                       liveness=tuple(self._liveness(result)))

    def _liveness(self, result: ExperimentResult) -> List[str]:
        """The run must re-converge: every crashed replica back to ready,
        and no transaction left prepared-but-undecided."""
        complaints = []
        for rec in result.recoveries:
            if rec.get("ready_at") is None:
                complaints.append(
                    f"{rec['node']} crashed at {rec['crashed_at']:.2f} "
                    f"and never became ready")
        cluster = result.cluster
        if cluster is None:
            raise RuntimeError("liveness oracle needs keep_cluster runs")
        end = cluster.sim.now
        first_vote: Dict[str, float] = {}
        for event in cluster.audit.select("txn.vote"):
            first_vote.setdefault(event["tx"], event.time)
        for group in cluster.groups:
            for i, runtime in enumerate(group.runtimes):
                if runtime is None or not runtime.ready:
                    continue
                for tx in sorted(runtime.app.state.pending_txns):
                    prepared_at = first_vote.get(tx)
                    age = None if prepared_at is None else end - prepared_at
                    if age is not None and age <= self.liveness_grace_s:
                        continue  # young enough to still be in flight
                    complaints.append(
                        f"tx {tx} still pending on {group.replica_names[i]} "
                        f"at end of run"
                        + (f" ({age:.2f}s after its prepare)"
                           if age is not None else ""))
        return complaints


# ----------------------------------------------------------------------
# shrinking (delta debugging, remove-one greedy)
# ----------------------------------------------------------------------
def shrink(schedule: Sequence[InjectionPoint],
           reproduces: Callable[[Tuple[InjectionPoint, ...]], bool],
           ) -> Tuple[InjectionPoint, ...]:
    """Greedy 1-minimal shrink: repeatedly drop any single fault whose
    removal still reproduces the violation, until no single removal
    does.  ``reproduces`` is the (expensive) oracle; the caller decides
    whether it runs a fresh experiment or replays a table.
    """
    current: Tuple[InjectionPoint, ...] = tuple(schedule)
    progress = True
    while progress and len(current) > 1:
        progress = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if reproduces(candidate):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
@dataclass
class ExploreReport:
    """Everything one exploration produced, JSON-serializable."""

    seed: int
    interactions: Tuple[str, ...]
    max_faults: int
    budget: int
    scale: str
    shards: int
    replicas: int
    points: List[dict] = field(default_factory=list)
    runs: List[dict] = field(default_factory=list)
    violations: List[dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage_pct(self) -> float:
        """Share of deduped single-fault points actually executed."""
        total = self.counters.get("points_deduped", 0)
        if not total:
            return 0.0
        return 100.0 * self.counters.get("singles_executed", 0) / total

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "interactions": list(self.interactions),
            "max_faults": self.max_faults,
            "budget": self.budget,
            "scale": self.scale,
            "shards": self.shards,
            "replicas": self.replicas,
            "coverage_pct": round(self.coverage_pct, 2),
            "counters": dict(self.counters),
            "points": self.points,
            "runs": self.runs,
            "violations": self.violations,
        }


def _point_dict(point: InjectionPoint, time_div: float) -> dict:
    return {
        "signature": list(point.signature),
        "kind": point.kind,
        "node": point.node,
        "at_s": round(point.at * time_div, 4),
        "spec": spec_of(point, time_div),
        "tx": point.tx,
    }


def explore(runner: ExplorationRunner, max_faults: int = 1,
            budget: int = 64, do_shrink: bool = True) -> ExploreReport:
    """Search the fault space up to ``max_faults`` faults per schedule.

    ``budget`` caps the number of *executed* experiments (golden and
    shrink runs not counted); schedules skipped for budget are counted,
    never silently dropped.  The returned report reproduces bit-for-bit
    for a fixed runner configuration.
    """
    config = runner.config
    time_div = config.scale.time_div
    report = ExploreReport(
        seed=config.seed, interactions=runner.interactions,
        max_faults=max_faults, budget=budget, scale=config.scale.name,
        shards=config.shards, replicas=config.replicas)
    counters = report.counters
    for key in ("points_concrete", "points_deduped", "singles_executed",
                "executed", "pruned_prefix", "deduped_skipped",
                "budget_skipped", "shrink_runs"):
        counters[key] = 0

    _, concrete = runner.golden()
    points = dedupe_points(concrete)
    counters["points_concrete"] = len(concrete)
    counters["points_deduped"] = len(points)
    counters["deduped_skipped"] = len(concrete) - len(points)
    report.points = [_point_dict(p, time_div) for p in points]

    def execute(schedule: Tuple[InjectionPoint, ...], depth: int,
                ) -> Tuple[Optional[ExperimentResult], Optional[Verdict]]:
        if counters["executed"] >= budget:
            counters["budget_skipped"] += 1
            return None, None
        result, verdict = runner.run(schedule)
        counters["executed"] += 1
        if depth == 1:
            counters["singles_executed"] += 1
        report.runs.append({
            "depth": depth,
            "schedule": schedule_spec(schedule, time_div),
            "signatures": [list(p.signature) for p in schedule],
            **verdict.to_dict(),
        })
        return result, verdict

    def reproduces(candidate: Tuple[InjectionPoint, ...]) -> bool:
        counters["shrink_runs"] += 1
        _, verdict = runner.run(candidate)
        return verdict.violated

    def record_violation(schedule: Tuple[InjectionPoint, ...],
                         verdict: Verdict) -> None:
        minimal = shrink(schedule, reproduces) if do_shrink else schedule
        report.violations.append({
            "schedule": schedule_spec(schedule, time_div),
            "minimal": schedule_spec(minimal, time_div),
            **verdict.to_dict(),
        })

    # (schedule, result-of-that-schedule) pairs eligible for extension
    parents: List[Tuple[Tuple[InjectionPoint, ...], ExperimentResult]] = []
    violating: List[Tuple[InjectionPoint, ...]] = []

    # depth 1: the full single-fault sweep over the deduped points
    for point in points:
        result, verdict = execute((point,), depth=1)
        if verdict is None:
            continue
        if verdict.violated:
            record_violation((point,), verdict)
            violating.append((point,))
        elif result is not None:
            parents.append(((point,), result))

    # depth 2..k: extend clean schedules on their own perturbed timeline
    for depth in range(2, max_faults + 1):
        next_parents: List[
            Tuple[Tuple[InjectionPoint, ...], ExperimentResult]] = []
        # Every extension a violating prefix would have spawned is
        # pruned: the super-schedule can only rediscover the prefix's
        # own violation.  Count them so pruning is visible in the
        # report, but never execute them.
        for prefix in violating:
            if len(prefix) == depth - 1:
                counters["pruned_prefix"] += len(points) - len(prefix)
        for schedule, parent_result in parents:
            last_at = schedule[-1].at
            taken = {p.signature for p in schedule}
            extensions = [p for p in dedupe_points(
                              runner.extract(parent_result))
                          if p.at > last_at and p.signature not in taken]
            for point in extensions:
                candidate = schedule + (point,)
                result, verdict = execute(candidate, depth=depth)
                if verdict is None:
                    continue
                if verdict.violated:
                    record_violation(candidate, verdict)
                    violating.append(candidate)
                elif result is not None:
                    next_parents.append((candidate, result))
        parents = next_parents

    return report
