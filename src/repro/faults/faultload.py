"""Faultloads: crash, reboot, partition, and nemesis events.

The paper's faults are environment/operator-style: an abrupt server
shutdown (kill at the OS level) and an abrupt reboot.  Targets may be
fixed replica indexes or drawn at random among currently-live replicas
(as in Section 5.5: "the replicas to be crashed were chosen at random").

A ``reboot`` event models the *manual* recovery of the delayed-recovery
experiment; it counts as a human intervention for the autonomy measure.

Beyond the paper, the **nemesis extension** adds message-level faults
(the kinds Vieira & Buzato's Fast Paxos study identifies as the ones
that actually break implementations): probabilistic message ``drop``,
``dup`` (duplication), and ``delay`` spikes over a time window, plus
``oneway`` (asymmetric) partitions of a directed replica pair.

Grammar (one comma-separated event per chunk)::

    crash@240          crash a random live replica at t=240
    crash@240:2        crash replica 2
    reboot@390:2       manually reboot replica 2 (an intervention)
    partition@300-330:1  isolate replica 1 from its peers (both ways)
                         in [300,330)
    partition@300:1      the same, never healed
    drop@10-60:p=0.2   drop each message with probability 0.2 in [10,60)
    dup@10-60:p=0.1    duplicate messages with probability 0.1
    delay@10-60:p=0.3:m=0.05   30% of messages get an extra exponential
                               delay of mean 50 ms (reordering)
    drop@10-60:1>2:p=0.5       only the replica1 -> replica2 direction
    oneway@30:2>3      cut the replica2 -> replica3 direction at t=30
    oneway@30-90:2>3   the same, healed at t=90

The **storage extension** makes replica disks a fault domain (handled by
:class:`repro.sim.disk.StorageNemesis`)::

    corrupt@240:1          silently damage one durable record on replica
                           1's disk at t=240 (found on read-back)
    torn@200-400:1         crashes of replica 1 in [200,400) tear the
                           in-flight write instead of dropping it
    torn@200:1:p=0.5       the same, open-ended, tearing with prob. 0.5
    fsynclie@200-300:1     replica 1's write cache lies in [200,300):
                           completions acked there are lost by a crash
                           inside the window
    failslow@200-300:1:m=4 replica 1's disk runs 4x slower in [200,300)

The **geo extension** scopes faults to whole datacenters of a
geo-replicated deployment (:mod:`repro.geo`; the run must be configured
with a topology)::

    dcfail@240:dc1             full outage of dc1: every replica housed
                               there crashes, its watchdog held
    dcfail@240-400:dc1         the same, power restored at t=400 (the
                               watchdogs revive the servers: autonomous,
                               unless a reboot holds one for good)
    wanpart@240:dc0|dc1,dc2    WAN partition isolating dc0 from dc1 and
                               dc2 (every cross-cut node pair blocked)
    wanpart@240-400:dc0|dc1    the same, healed at t=400
    wandegrade@240-400:dc0>dc1,x5   the directed dc0 -> dc1 WAN link
                               runs 5x slower in [240,400)

On partitioned deployments (``shards > 1``) targets may be
shard-qualified with a dotted ``shard.replica`` form::

    crash@240:1.2      crash shard 1's replica 2
    crash@240:1.*      crash a random live replica of shard 1
    reboot@390:0.3     manually reboot shard 0's replica 3
    oneway@30:0.1>1.2  cut shard0.replica1 -> shard1.replica2

A directed pair must be shard-qualified at both ends or neither; plain
indexes address shard 0.  Indexes are never negative, and
``ClusterConfig.check_faults`` range-checks them against the deployment
before the run starts.

Every per-kind fact -- target shape, window rule, options, the cluster
verbs, what it counts towards -- lives in one :class:`FaultKind` row of
:data:`KINDS`; the parser, the validator (:class:`FaultEvent`), the
injector and the harness read the row instead of branching on the
kind's name.  Every kind has one lifecycle: :class:`FaultInjector`
injects it at ``at`` and heals it at a finite ``until``, so the engines
behind the verbs (the message nemesis, the storage nemesis, the WAN
model) hold only the faults active now and never look at the clock.
A fault is a *hold* on its resource -- a network pair, a nemesis
window, a CPU slowdown factor, a watchdog -- that only its own heal
releases, and the resource stays faulted while any hold remains, so
overlapping faults compose: two cuts of one link, two storms, a DC
outage on a replica whose reboot is manual.
Parsing and direct construction reject the same events.
An event names one target and gives each option once; a second target
or a repeated option is rejected, never last-one-wins.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from typing import (Callable, Dict, FrozenSet, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.sim.trace import log_of


class Shape(NamedTuple):
    """What an event's target names: the target fields it may set, the
    ones it must set (unless ``optional`` and none is set), and whether
    its ends must be distinct."""

    noun: str
    fields: FrozenSet[str]
    required: FrozenSet[str] = frozenset()
    optional: bool = False
    distinct: bool = False


_ONE = frozenset({"replica", "shard"})
_TWO = _ONE | {"dst", "dst_shard"}
NO_TARGET = Shape("no target", frozenset())
REPLICA = Shape("a fixed replica target", _ONE, frozenset({"replica"}))
ANY_REPLICA = Shape("a replica target or '*'", _ONE)
PAIR = Shape("a directed pair", _TWO, frozenset({"replica", "dst"}),
             distinct=True)
OPTIONAL_PAIR = Shape("a directed pair or no target", _TWO,
                      frozenset({"replica", "dst"}), optional=True)
DC = Shape("a datacenter name", frozenset({"dc"}), frozenset({"dc"}))
DC_CUT = Shape("a datacenter and the far side of the cut",
               frozenset({"dc", "peer_dcs"}), frozenset({"dc", "peer_dcs"}),
               distinct=True)
DC_LINK = Shape("a directed DC link", frozenset({"dc", "to_dc"}),
                frozenset({"dc", "to_dc"}), distinct=True)

#: every target field, and what a misplaced one is called
_TARGET_FIELDS = {"replica": "a replica", "shard": "a shard qualifier",
                  "dst": "a pair", "dst_shard": "a pair",
                  "dc": "datacenter names", "peer_dcs": "a '|' far side",
                  "to_dc": "a '>' link"}

# Window rules.
POINT = "point"               # an instant, no window
WINDOW = "window"             # needs [at, until)
OPTIONAL_WINDOW = "window?"   # open-ended unless an end is given


class Option(NamedTuple):
    """One option spelling a kind accepts and the :class:`FaultEvent`
    field it fills."""

    key: str      # 'p=', 'm=', 'factor=', or 'x' (the 'xN' suffix)
    field: str
    required: bool = False
    default: Optional[float] = None


#: the per-message probability every message fault needs
_P = Option("p=", "p", required=True)

#: option field -> (noun, allowed range, check), the same for every kind
_RANGES: Dict[str, Tuple[str, str, Callable[[float], bool]]] = {
    "p": ("probability", "in (0, 1]", lambda value: 0.0 < value <= 1.0),
    "delay_mean_s": ("mean", "a finite number > 0",
                     lambda value: math.isfinite(value) and value > 0),
    "factor": ("multiplier", "a finite number >= 1.0",
               lambda value: math.isfinite(value) and value >= 1.0),
}


@dataclass(frozen=True)
class FaultKind:
    """Everything the parser, validator, injector and harness know about
    one fault kind.

    Every row has one lifecycle: the injector calls its ``inject`` verb
    at ``at`` and its ``heal`` verb at a finite ``until``, each as
    ``verb(*args, *targets, **options)``; the heal releases exactly
    what that inject took.  A ``prepare`` verb is called with the
    targets when the injector arms, before the run starts.
    Any kind may appear in any spec: a scenario's,
    ``Experiment.faults()`` or ``Experiment.nemesis()``.
    """

    example: str
    target: Shape
    window: str
    options: Tuple[Option, ...] = ()
    inject: Optional[str] = None
    heal: Optional[str] = None
    args: Tuple[str, ...] = ()    # leading verb arguments, before targets
    prepare: Optional[str] = None
    fault: bool = False           # counts towards faults_injected
    intervention: bool = False    # counts towards interventions
    outage: bool = False          # can open the run's first outage
    trigger: bool = False         # its window is the metastability trigger


#: the verbs of every message-fault window, and of every storage window
_MESSAGE = dict(inject="open_message_window", heal="close_message_window")
_STORAGE = dict(inject="open_storage_window", heal="close_storage_window",
                prepare="watch_disks")

KINDS: Dict[str, FaultKind] = {
    # The paper's operator faults, plus the symmetric partition.  The
    # replica a reboot names gets its watchdog held for good before the
    # run starts, so the reboot is genuinely manual.
    "crash": FaultKind("crash@240:2", ANY_REPLICA, POINT,
                       inject="crash_replica", fault=True, outage=True),
    "reboot": FaultKind("reboot@390:2", REPLICA, POINT,
                        inject="reboot_replica", prepare="disable_watchdog",
                        intervention=True),
    "partition": FaultKind("partition@240-300:1", REPLICA, OPTIONAL_WINDOW,
                           inject="partition_replica", heal="heal_replica",
                           outage=True),
    # Nemesis: windowed message faults and the asymmetric cut.  ``args``
    # names the NemesisParams field ``p`` sets.
    "drop": FaultKind("drop@10-60:p=0.2", OPTIONAL_PAIR, WINDOW, (_P,),
                      args=("drop_p",), **_MESSAGE),
    "dup": FaultKind("dup@10-60:p=0.1", OPTIONAL_PAIR, WINDOW, (_P,),
                     args=("duplicate_p",), **_MESSAGE),
    "delay": FaultKind("delay@10-60:p=0.3:m=0.05", OPTIONAL_PAIR, WINDOW,
                       (_P, Option("m=", "delay_mean_s")),
                       args=("delay_p",), **_MESSAGE),
    "oneway": FaultKind("oneway@30-90:2>3", PAIR, OPTIONAL_WINDOW,
                        inject="block_oneway", heal="unblock_oneway"),
    # Storage: one replica's disk misbehaves.  Every disk is put under
    # the storage nemesis before the run starts (``prepare``).
    "torn": FaultKind("torn@200-400:1", REPLICA, OPTIONAL_WINDOW,
                      (Option("p=", "p"),), args=("torn",), **_STORAGE),
    "corrupt": FaultKind("corrupt@240:1", REPLICA, POINT,
                         inject="corrupt_disk", prepare="watch_disks"),
    "fsynclie": FaultKind("fsynclie@200-300:1", REPLICA, OPTIONAL_WINDOW,
                          args=("fsynclie",), **_STORAGE),
    "failslow": FaultKind("failslow@200-300:1:m=4", REPLICA,
                          OPTIONAL_WINDOW, (Option("m=", "factor"),),
                          args=("failslow",), **_STORAGE),
    # Geo: whole datacenters and the WAN between them.  Every replica a
    # DC outage takes down is one injected fault.
    "dcfail": FaultKind("dcfail@240-400:dc1", DC, OPTIONAL_WINDOW,
                        inject="fail_dc", heal="restore_dc", fault=True,
                        outage=True),
    "wanpart": FaultKind("wanpart@240-400:dc0|dc1,dc2", DC_CUT,
                         OPTIONAL_WINDOW, inject="wan_partition",
                         heal="heal_wan_partition", outage=True),
    "wandegrade": FaultKind("wandegrade@240-400:dc0>dc1,x5", DC_LINK,
                            OPTIONAL_WINDOW, (Option("x", "factor"),),
                            inject="degrade_wan", heal="restore_wan"),
    # The metastability trigger (repro.resilience): every replica CPU
    # slows down over the window; whether goodput recovers after the heal
    # is what the MetastabilityOracle judges.
    "retrystorm": FaultKind("retrystorm@240-270:factor=8", NO_TARGET, WINDOW,
                            (Option("factor=", "factor", default=8.0),),
                            inject="begin_slowdown", heal="end_slowdown",
                            fault=True, trigger=True),
}

ALL_KINDS = tuple(KINDS)

_DC_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, checked against its :data:`KINDS` row.

    ``kind`` is one of :data:`ALL_KINDS`; its row's target shape says
    which target fields it sets (``replica``/``shard``, a directed pair
    adding ``dst``/``dst_shard``, or datacenter names), its window rule
    whether ``until`` is allowed or needed, and its options which of
    ``p``, ``delay_mean_s`` and ``factor`` it takes.  ``shard``/
    ``dst_shard`` carry the dotted grammar's qualifiers (``1.2``) and
    stay ``None`` for unsharded targets.
    """

    at: float
    kind: str
    replica: Optional[int] = None  # None = random live replica (crash only)
    until: Optional[float] = None
    p: Optional[float] = None
    dst: Optional[int] = None
    delay_mean_s: Optional[float] = None
    factor: Optional[float] = None   # fail-slow / wandegrade multiplier
    shard: Optional[int] = None      # shard of ``replica`` (sharded runs)
    dst_shard: Optional[int] = None  # shard of ``dst``
    dc: Optional[str] = None         # datacenter target (geo kinds)
    peer_dcs: Optional[Tuple[str, ...]] = None  # far side of a wanpart
    to_dc: Optional[str] = None      # wandegrade link destination

    @property
    def src_target(self):
        """What fault methods take: an index, or (shard, index)."""
        if self.shard is not None:
            return (self.shard, self.replica)
        return self.replica

    @property
    def dst_target(self):
        if self.dst_shard is not None:
            return (self.dst_shard, self.dst)
        return self.dst

    def scaled(self, scale) -> "FaultEvent":
        """The same event on ``scale``'s compressed timeline."""
        return replace(self, at=scale.t(self.at), until=(
            None if self.until is None else scale.t(self.until)))

    def __post_init__(self):
        row = KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        self._check_window(row)
        self._check_target(row)
        self._check_options(row)

    def _check_window(self, row: FaultKind) -> None:
        if math.isnan(self.at) or (self.until is not None
                                   and math.isnan(self.until)):
            raise ValueError("fault times may not be NaN")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(
                f"fault time must be a finite number >= 0, got {self.at!r}")
        if row.window == POINT:
            if self.until is not None:
                raise ValueError(f"{self.kind!r} is a point event and takes "
                                 f"no time window")
        elif self.until is None:
            if row.window == WINDOW:
                raise ValueError(f"{self.kind!r} needs a time window, e.g. "
                                 f"'{row.example}'")
        elif self.until <= self.at:
            raise ValueError(
                f"{self.kind!r} window must end after it starts "
                f"({self.at} >= {self.until})")

    def _check_target(self, row: FaultKind) -> None:
        kind, shape = self.kind, row.target
        given = set()
        for name, noun in _TARGET_FIELDS.items():
            value = getattr(self, name)
            if value is None or value == ():
                continue
            if name not in shape.fields:
                raise ValueError(f"{kind!r} takes {shape.noun}, not {noun}")
            if isinstance(value, int) and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            given.add(name)
        if self.dst is not None and (self.shard is None) != (self.dst_shard
                                                            is None):
            raise ValueError(
                "a directed pair must be shard-qualified at both ends "
                "('0.1>1.2') or neither ('1>2')")
        if not shape.required <= given and (given or not shape.optional):
            raise ValueError(
                f"{kind!r} needs {shape.noun}, e.g. '{row.example}'")
        ends = [end for end in (self.src_target, self.dst_target, self.dc,
                                self.to_dc, *(self.peer_dcs or ()))
                if end is not None]
        for name in ends:
            if isinstance(name, str) and not _DC_NAME.match(name):
                raise ValueError(f"bad datacenter name {name!r}")
        if shape.distinct and len(set(ends)) != len(ends):
            raise ValueError(f"{kind!r} must name {len(ends)} distinct "
                             f"ends, got {ends}")

    def _check_options(self, row: FaultKind) -> None:
        accepted = {option.field: option for option in row.options}
        for field, (noun, bound, accepts) in _RANGES.items():
            value, option = getattr(self, field), accepted.get(field)
            if option is None:
                if value is not None:
                    raise ValueError(
                        f"{self.kind!r} takes no {field!r} option")
            elif value is None:
                if option.required:
                    raise ValueError(
                        f"{self.kind!r} needs a {noun} ({option.key}), "
                        f"e.g. '{row.example}'")
            elif not accepts(value):
                raise ValueError(f"{self.kind!r} {noun} must be {bound}, "
                                 f"got {value!r}")


@dataclass(frozen=True)
class Faultload:
    """A named schedule of fault events."""

    name: str
    events: Sequence[FaultEvent] = ()

    def geo_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events
                     if "dc" in KINDS[e.kind].target.fields)

    def scaled(self, scale) -> "Faultload":
        """The same schedule on ``scale``'s compressed timeline."""
        return replace(self, events=tuple(event.scaled(scale)
                                          for event in self.events))

    @classmethod
    def parse(cls, spec: str, name: str = "custom") -> "Faultload":
        """Parse a compact faultload spec (see the module docstring).

        Example::

            Faultload.parse("crash@240:*, drop@10-60:p=0.2, oneway@30:2>3")
        """
        # Geo targets and option lists carry commas of their own
        # ('wanpart@240:dc0|dc1,dc2', 'wandegrade@240:dc0>dc1,x5'): a new
        # event starts only at a comma whose next chunk holds an '@'.
        chunks = [chunk.strip(" \t\n,")
                  for chunk in re.split(r",(?=[^,@]*@)", spec)]
        return cls(name, tuple(_parse_event(chunk) for chunk in chunks
                               if chunk))


def _parse_event(chunk: str) -> FaultEvent:
    """Tokenize one ``kind@time[:target][:options]`` chunk into event
    fields; the :class:`FaultEvent` row check judges them.  Rejected here
    is only what fills no field: text that is not a number or an index,
    an unknown kind or option, a second target, and ``*`` where the row
    takes no random replica."""
    try:
        kind, at_sign, rest = chunk.partition("@")
        if not at_sign:
            raise ValueError("bad fault event (missing '@')")
        kind = kind.strip()
        row = KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(expected one of {', '.join(KINDS)})")
        time_text, *parts = [part.strip() for part in rest.split(":")]
        at, until = _parse_time(time_text)
        fields: Dict[str, object] = {}
        target = None
        for part in parts:
            if "=" in part:
                for option in part.split(","):
                    key, _eq, value = option.partition("=")
                    _set_option(kind, row, fields, f"{key.strip()}=", value)
            elif target is not None:
                raise ValueError(
                    f"more than one target ({part!r} is the second)")
            else:
                target = part
        if target is not None:
            _parse_target_part(kind, row, target, fields)
        return FaultEvent(at, kind, until=until, **fields)
    except ValueError as error:
        raise ValueError(f"{error} (in {chunk!r})") from None


def _set_option(kind: str, row: FaultKind, fields: Dict[str, object],
                key: str, text: str) -> None:
    """Fill the field behind one option ``key`` of ``kind``."""
    option = next((o for o in row.options if o.key == key), None)
    if option is None:
        if not row.options:
            raise ValueError(f"{kind!r} takes no key=value options")
        raise ValueError(
            f"unknown option {key!r} for {kind!r} "
            f"(expected {', '.join(o.key for o in row.options)})")
    if option.field in fields:
        raise ValueError(f"option {key!r} given more than once")
    fields[option.field] = _number(text, f"bad value for {key!r}:")


def _number(text: str, error: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{error} {text.strip()!r}") from None


def _parse_time(text: str) -> Tuple[float, Optional[float]]:
    if text.startswith("-"):
        raise ValueError(f"fault time must be >= 0, got {text!r}")
    # The window's dash is the first '-' that is not an exponent's sign
    # ('1e-05-30' is [1e-05, 30)).
    start, *end = re.split(r"(?<![eE])-", text, maxsplit=1)
    return (_number(start, "bad fault time"),
            _number(end[0], "bad window end") if end else None)


def _parse_target_part(kind: str, row: FaultKind, text: str,
                       fields: Dict[str, object]) -> None:
    """``*``, ``src``, ``src>dst[,xN]`` (a pair or a DC link) or
    ``dc|dc,dc`` (a DC cut) into event fields."""
    if text == "*":
        if row.target != ANY_REPLICA:
            raise ValueError("a random target '*' is only valid for crash")
        return
    near, bar, far = text.partition("|")
    if bar:
        fields["dc"] = near.strip()
        fields["peer_dcs"] = tuple(name.strip() for name in far.split(",")
                                   if name.strip())
        return
    src, arrow, tail = text.partition(">")
    dst, *options = tail.split(",")
    for option in options:
        option = option.strip()
        _set_option(kind, row, fields, option[:1], option[1:])
    if "dc" in row.target.fields:
        fields["dc"] = src.strip()
        if arrow:
            fields["to_dc"] = dst.strip()
    else:
        fields["shard"], fields["replica"] = _parse_replica(src)
        if arrow:
            fields["dst_shard"], fields["dst"] = _parse_replica(dst)


def _parse_replica(text: str) -> Tuple[Optional[int], Optional[int]]:
    """One target as ``(shard, replica)``: ``2`` -> (None, 2),
    ``1.2`` -> (1, 2), ``1.*`` -> (1, None)."""
    shard, dot, replica = text.strip().rpartition(".")
    try:
        return (int(shard) if dot else None,
                None if dot and replica.strip() == "*" else int(replica))
    except ValueError:
        raise ValueError(f"bad replica target {text.strip()!r}") from None


class FaultInjector:
    """Applies a faultload to a cluster by its events' :data:`KINDS` rows.

    The one place that decides when a fault is active: each event's
    inject verb runs at ``at`` and its heal verb at a finite ``until``,
    so the cluster's engines only ever hold the faults active now.  The
    cluster must expose the verbs the rows name, ``live_replicas`` for
    random crash targets and ``target_label``.  Targets are opaque here:
    the verbs get the row's ``args``, then ``event.src_target``/
    ``dst_target`` (or a pick from ``live_replicas``) or datacenter
    names, then the row's option values by field name.
    ``faults_injected``, ``interventions``, ``first_outage`` and
    ``trigger_window`` tally the rows' counting flags as events fire;
    every injection and heal is one event on the simulator's event log
    (``fault.inject``, ``fault.heal``), the run's one record of what was
    injected and when.
    """

    def __init__(self, sim, cluster, faultload: Faultload,
                 rng: Optional[random.Random] = None):
        self._sim = sim
        self._cluster = cluster
        self.faultload = faultload
        self._rng = rng or random.Random(0)
        self.faults_injected = 0
        self.interventions = 0
        self.first_outage: Optional[float] = None
        self.trigger_window: Optional[Tuple[float, float]] = None
        self._trigger_at: Optional[float] = None
        self._events = log_of(sim)

    def arm(self) -> None:
        for event in self.faultload.events:
            row = KINDS[event.kind]
            if row.prepare is not None:
                getattr(self._cluster, row.prepare)(*self._targets(event))
            self._sim.call_at(event.at, self._fire, event)
            if event.until is not None and not math.isinf(event.until):
                self._sim.call_at(event.until, self._heal, event)

    def _targets(self, event: FaultEvent) -> Optional[tuple]:
        """What the row's verbs take: the event's target fields that are
        set, in order; ``None`` when a random pick finds no live replica."""
        if event.replica is None and KINDS[event.kind].target == ANY_REPLICA:
            # crash@T:* / crash@T:1.* -- a random live replica (of one
            # shard, when qualified).
            live = self._cluster.live_replicas(event.shard)
            return (self._rng.choice(sorted(live)),) if live else None
        return tuple(end for end in (event.dc, event.peer_dcs, event.to_dc,
                                     event.src_target, event.dst_target)
                     if end is not None)

    @staticmethod
    def _options(event: FaultEvent) -> Dict[str, float]:
        """The row's option values by field, defaults filled in."""
        options = {}
        for option in KINDS[event.kind].options:
            value = getattr(event, option.field)
            if value is None:
                value = option.default
            if value is not None:
                options[option.field] = value
        return options

    def _fire(self, event: FaultEvent) -> None:
        # Emit before mutating: crash listeners (proxy broken
        # connections, DC-wide crashes) fire synchronously inside the
        # cluster call, and the logged cause must precede its
        # consequences.
        row = KINDS[event.kind]
        targets = self._targets(event)
        if targets is None:
            return
        options = self._options(event)
        now = self._sim.now
        self._emit("fault.inject", event, targets, **options)
        taken = getattr(self._cluster, row.inject)(*row.args, *targets,
                                                   **options)
        if row.fault:
            # A verb that can take down several replicas (a DC outage)
            # returns how many it did.
            self.faults_injected += 1 if taken is None else taken
        if row.intervention:
            self.interventions += 1
        if row.outage and self.first_outage is None:
            self.first_outage = now
        if row.trigger and self._trigger_at is None:
            self._trigger_at = now

    def _heal(self, event: FaultEvent) -> None:
        row = KINDS[event.kind]
        targets = self._targets(event)
        getattr(self._cluster, row.heal)(*row.args, *targets,
                                         **self._options(event))
        self._emit("fault.heal", event, targets)
        if row.trigger:
            self.trigger_window = (self._trigger_at, self._sim.now)

    def _emit(self, kind: str, event: FaultEvent, targets: tuple,
              **fields) -> None:
        """One logged event naming the target the verb took, with the
        datacenter names the event carries."""
        if self._events is None:
            return
        if event.dc is not None:
            fields["target"] = event.dc
        elif targets:
            fields["target"] = ">".join(map(self._cluster.target_label,
                                            targets))
        for name in ("dc", "peer_dcs", "to_dc"):
            value = getattr(event, name)
            if value is not None:
                fields[name] = list(value) if name == "peer_dcs" else value
        self._events.emit(kind, None, fault=event.kind, **fields)
