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
    partition@300:1    isolate replica 1 from its peers (both ways)
    heal@330:1         reconnect replica 1
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
                               there crashes, watchdogs disabled
    dcfail@240-400:dc1         the same, power restored at t=400 (the
                               watchdogs revive the servers: autonomous)
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
indexes address shard 0.  Indexes are never negative, and the harness
range-checks them against the deployment before the run starts.

Targets are validated per kind at parse time: ``*`` (random live
replica) is only meaningful for ``crash``; ``reboot``/``partition``/
``heal`` need a fixed replica index; nemesis kinds need a time window
and a probability; ``oneway`` needs a directed ``src>dst`` pair.  An
event names one target and gives each ``key=`` option once; a second
target or a repeated option is rejected, never last-one-wins.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs.recorder import recorder_of

#: kinds taken verbatim from the paper's faultload (plus the symmetric
#: partition extension): point events against one replica.
REPLICA_KINDS = ("crash", "reboot", "partition", "heal")

#: windowed probabilistic message faults handled by the network nemesis.
NEMESIS_KINDS = ("drop", "dup", "delay")

#: the asymmetric partition: a directed pair, optionally windowed.
ONEWAY_KIND = "oneway"

#: storage faults against one replica's disk: ``corrupt`` is a point
#: event, the others are (optionally open-ended) windows.
STORAGE_KINDS = ("torn", "corrupt", "fsynclie", "failslow")

#: datacenter-scoped faults for geo-replicated runs (repro.geo): a full
#: DC outage, a WAN partition, and an asymmetric WAN slowdown.
GEO_KINDS = ("dcfail", "wanpart", "wandegrade")

#: the metastability trigger (repro.resilience): a transient slowdown of
#: every replica CPU over a window -- ``retrystorm@240-270:factor=8``.
#: The fault heals at the window end; whether goodput recovers with it
#: is what the MetastabilityOracle judges.
RETRYSTORM_KIND = "retrystorm"

ALL_KINDS = (REPLICA_KINDS + NEMESIS_KINDS + (ONEWAY_KIND,)
             + STORAGE_KINDS + GEO_KINDS + (RETRYSTORM_KIND,))

_DC_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``kind`` is one of :data:`ALL_KINDS`.  The paper kinds use ``at`` and
    ``replica`` (``None`` = random live replica, crash only).  Nemesis
    kinds add ``until`` (window end), ``p`` (per-message probability),
    and optionally a directed pair ``replica > dst``.  ``oneway`` uses
    ``replica``/``dst`` as the cut direction and an optional ``until``.
    ``shard``/``dst_shard`` carry the shard qualifiers of the dotted
    grammar (``1.2``); they stay ``None`` for unsharded targets.

    The geo kinds target datacenters by name instead of replicas:
    ``dc`` (all three), ``peer_dcs`` (the far side of a ``wanpart``
    cut), ``to_dc`` (the destination of a ``wandegrade`` link) and
    ``factor`` (its slowdown multiplier, also spelled ``xN``).
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

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(
                f"fault time must be a finite number >= 0, got {self.at!r}")
        if self.until is not None and math.isnan(self.until):
            raise ValueError("fault window end may not be NaN")
        for label, value in (("replica", self.replica), ("dst", self.dst),
                             ("shard", self.shard),
                             ("dst shard", self.dst_shard)):
            if value is not None and value < 0:
                raise ValueError(f"{label} must be >= 0, got {value!r}")
        if self.dst_shard is not None and self.dst is None:
            raise ValueError("a dst shard qualifier needs a pair target")
        if self.dst is not None and (self.shard is None) != (self.dst_shard
                                                            is None):
            raise ValueError(
                "a directed pair must be shard-qualified at both ends "
                "('0.1>1.2') or neither ('1>2')")
        if self.kind not in GEO_KINDS:
            if (self.dc is not None or self.peer_dcs is not None
                    or self.to_dc is not None):
                raise ValueError(
                    f"{self.kind!r} takes replica targets, not "
                    f"datacenter names")
        if self.kind in GEO_KINDS:
            self._check_geo()
        elif self.kind in REPLICA_KINDS:
            if self.kind != "crash" and self.replica is None:
                raise ValueError(
                    f"{self.kind!r} needs a fixed replica index "
                    f"(random '*' targets are only valid for crash)")
            if self.until is not None or self.p is not None \
                    or self.dst is not None or self.delay_mean_s is not None:
                raise ValueError(
                    f"{self.kind!r} takes a single replica target, "
                    f"not a window/probability/option/pair")
        elif self.kind in NEMESIS_KINDS:
            if self.until is None:
                raise ValueError(
                    f"{self.kind!r} needs a time window, e.g. "
                    f"'{self.kind}@10-60:p=0.2'")
            if self.until <= self.at:
                raise ValueError(
                    f"{self.kind!r} window must end after it starts "
                    f"({self.at} >= {self.until})")
            if self.p is None:
                raise ValueError(
                    f"{self.kind!r} needs a probability, e.g. "
                    f"'{self.kind}@10-60:p=0.2'")
            if not 0.0 < self.p <= 1.0:
                raise ValueError(
                    f"{self.kind!r} probability must be in (0, 1], "
                    f"got {self.p!r}")
            if (self.replica is None) != (self.dst is None):
                raise ValueError(
                    f"{self.kind!r} pair must name both ends ('1>2') "
                    f"or neither")
            if self.delay_mean_s is not None:
                if self.kind != "delay":
                    raise ValueError(
                        f"{self.kind!r} does not take an 'm=' mean")
                if not (math.isfinite(self.delay_mean_s)
                        and self.delay_mean_s > 0):
                    raise ValueError(
                        f"'delay' mean must be a finite number > 0, "
                        f"got {self.delay_mean_s!r}")
        elif self.kind in STORAGE_KINDS:
            if self.replica is None:
                raise ValueError(
                    f"{self.kind!r} needs a fixed replica target, e.g. "
                    f"'{self.kind}@240:1' (random '*' targets are only "
                    f"valid for crash)")
            if self.dst is not None:
                raise ValueError(
                    f"{self.kind!r} takes a single replica target, "
                    f"not a pair")
            if self.kind == "corrupt":
                if self.until is not None:
                    raise ValueError(
                        "'corrupt' is a point event and takes no time "
                        "window")
            elif self.until is not None and self.until <= self.at:
                raise ValueError(
                    f"{self.kind!r} window must end after it starts "
                    f"({self.at} >= {self.until})")
            if self.p is not None:
                if self.kind != "torn":
                    raise ValueError(
                        f"{self.kind!r} does not take a probability")
                if not 0.0 < self.p <= 1.0:
                    raise ValueError(
                        f"'torn' probability must be in (0, 1], "
                        f"got {self.p!r}")
            if self.factor is not None:
                if self.kind != "failslow":
                    raise ValueError(
                        f"{self.kind!r} does not take an 'm=' multiplier")
                if not (math.isfinite(self.factor) and self.factor >= 1.0):
                    raise ValueError(
                        f"'failslow' multiplier must be >= 1.0, "
                        f"got {self.factor!r}")
            if self.delay_mean_s is not None:
                # 'm=' only means something for failslow (the multiplier,
                # already moved into ``factor`` by the parser).
                raise ValueError(
                    f"{self.kind!r} does not take an 'm=' option")
        elif self.kind == RETRYSTORM_KIND:
            if self.replica is not None or self.dst is not None:
                raise ValueError(
                    "'retrystorm' slows every replica and takes no "
                    "replica target")
            if self.until is None:
                raise ValueError(
                    "'retrystorm' needs a time window, e.g. "
                    "'retrystorm@240-270:factor=8'")
            if self.until <= self.at:
                raise ValueError(
                    f"'retrystorm' window must end after it starts "
                    f"({self.at} >= {self.until})")
            if self.p is not None or self.delay_mean_s is not None:
                raise ValueError(
                    "'retrystorm' takes only a 'factor=' option")
            if self.factor is not None and not (
                    math.isfinite(self.factor) and self.factor >= 1.0):
                raise ValueError(
                    f"'retrystorm' factor must be >= 1.0, "
                    f"got {self.factor!r}")
        else:  # oneway
            if self.replica is None or self.dst is None:
                raise ValueError(
                    "'oneway' needs a directed pair, e.g. 'oneway@30:2>3'")
            if self.replica == self.dst:
                raise ValueError(
                    f"'oneway' pair must name two distinct replicas, "
                    f"got {self.replica}>{self.dst}")
            if self.until is not None and self.until <= self.at:
                raise ValueError(
                    f"'oneway' window must end after it starts "
                    f"({self.at} >= {self.until})")
            if self.p is not None:
                raise ValueError("'oneway' does not take a probability")
            if self.delay_mean_s is not None:
                raise ValueError("'oneway' does not take an 'm=' option")

    def _check_geo(self) -> None:
        if (self.replica is not None or self.dst is not None
                or self.shard is not None or self.dst_shard is not None
                or self.p is not None or self.delay_mean_s is not None):
            raise ValueError(
                f"{self.kind!r} targets a datacenter by name, not "
                f"replicas/probabilities")
        if self.dc is None or not _DC_NAME.match(self.dc):
            raise ValueError(
                f"{self.kind!r} needs a datacenter name, e.g. "
                f"'{self.kind}@240:dc1', got {self.dc!r}")
        if self.until is not None and self.until <= self.at:
            raise ValueError(
                f"{self.kind!r} window must end after it starts "
                f"({self.at} >= {self.until})")
        if self.kind == "wanpart":
            if not self.peer_dcs:
                raise ValueError(
                    "'wanpart' needs the far side of the cut, e.g. "
                    "'wanpart@240:dc0|dc1,dc2'")
            for name in self.peer_dcs:
                if not _DC_NAME.match(name):
                    raise ValueError(f"bad datacenter name {name!r}")
            if self.dc in self.peer_dcs:
                raise ValueError(
                    f"'wanpart' cannot isolate {self.dc!r} from itself")
            if len(set(self.peer_dcs)) != len(self.peer_dcs):
                raise ValueError(
                    f"duplicate datacenter in {self.peer_dcs!r}")
        elif self.peer_dcs is not None:
            raise ValueError(f"{self.kind!r} does not take a '|' far side")
        if self.kind == "wandegrade":
            if self.to_dc is None or not _DC_NAME.match(self.to_dc):
                raise ValueError(
                    "'wandegrade' needs a directed DC link, e.g. "
                    "'wandegrade@240-400:dc0>dc1,x5'")
            if self.to_dc == self.dc:
                raise ValueError(
                    f"'wandegrade' link must join two distinct DCs, "
                    f"got {self.dc}>{self.to_dc}")
            if self.factor is not None and not (
                    math.isfinite(self.factor) and self.factor >= 1.0):
                raise ValueError(
                    f"'wandegrade' multiplier must be >= 1.0, "
                    f"got {self.factor!r}")
        else:
            if self.to_dc is not None:
                raise ValueError(f"{self.kind!r} does not take a '>' link")
            if self.factor is not None:
                raise ValueError(
                    f"{self.kind!r} does not take an 'xN' multiplier")


@dataclass(frozen=True)
class Faultload:
    """A named schedule of fault events."""

    name: str
    events: Sequence[FaultEvent] = ()

    def crash_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "crash")

    def manual_interventions(self) -> int:
        return sum(1 for e in self.events if e.kind == "reboot")

    def nemesis_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in NEMESIS_KINDS)

    def storage_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in STORAGE_KINDS)

    def geo_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind in GEO_KINDS)

    def retrystorm_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == RETRYSTORM_KIND)

    @classmethod
    def parse(cls, spec: str, name: str = "custom") -> "Faultload":
        """Parse a compact faultload spec (see the module docstring).

        Example::

            Faultload.parse("crash@240:*, drop@10-60:p=0.2, oneway@30:2>3")
        """
        # Geo targets carry commas of their own ('wanpart@240:dc0|dc1,dc2',
        # 'wandegrade@240:dc0>dc1,x5'): a chunk without an '@' is the tail
        # of the previous event, not a new one.
        chunks: List[str] = []
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk and chunks:
                chunks[-1] = f"{chunks[-1]},{chunk}"
            else:
                chunks.append(chunk)
        return cls(name, tuple(_parse_event(chunk) for chunk in chunks))


def _parse_event(chunk: str) -> FaultEvent:
    try:
        kind, rest = chunk.split("@", 1)
    except ValueError:
        raise ValueError(f"bad fault event (missing '@'): {chunk!r}")
    kind = kind.strip()
    if kind not in ALL_KINDS:
        raise ValueError(f"unknown fault kind {kind!r} in {chunk!r} "
                         f"(expected one of {', '.join(ALL_KINDS)})")
    if kind in GEO_KINDS:
        return _parse_geo_event(kind, rest, chunk)
    parts = [part.strip() for part in rest.split(":")]
    at, until = _parse_time(parts[0], kind, chunk)
    replica = dst = p = mean = shard = dst_shard = factor_opt = None
    targeted = False
    for part in parts[1:]:
        if "=" in part:
            if kind not in NEMESIS_KINDS and kind not in (
                    "torn", "failslow", RETRYSTORM_KIND):
                raise ValueError(
                    f"{kind!r} takes no key=value options: {chunk!r}")
            p, mean, factor_opt = _parse_options(part, p, mean, factor_opt,
                                                 chunk)
            continue
        if targeted:
            raise ValueError(
                f"more than one target ({part!r} is the second) "
                f"in {chunk!r}")
        targeted = True
        if ">" in part:
            if kind in REPLICA_KINDS:
                raise ValueError(
                    f"{kind!r} takes a single replica target, "
                    f"not a pair: {chunk!r}")
            src_text, dst_text = part.split(">", 1)
            shard, replica = _parse_target(src_text, chunk)
            dst_shard, dst = _parse_target(dst_text, chunk)
            if replica is None or dst is None:
                raise ValueError(
                    f"a pair must name fixed replicas, not '*': {chunk!r}")
        elif part == "*":
            if kind != "crash":
                raise ValueError(
                    f"random target '*' is only valid for crash, "
                    f"not {kind!r}: {chunk!r}")
            replica = None
        else:
            if kind == RETRYSTORM_KIND:
                raise ValueError(
                    f"'retrystorm' slows every replica and takes no "
                    f"target, got {part!r}: {chunk!r}")
            if kind not in REPLICA_KINDS and kind not in STORAGE_KINDS:
                raise ValueError(
                    f"{kind!r} needs a directed pair 'src>dst', "
                    f"got bare target {part!r}: {chunk!r}")
            shard, replica = _parse_target(part, chunk)
            if replica is None and kind != "crash":
                raise ValueError(
                    f"random target '*' is only valid for crash, "
                    f"not {kind!r}: {chunk!r}")
    factor = factor_opt
    if factor_opt is not None and kind != RETRYSTORM_KIND:
        raise ValueError(
            f"'factor=' is a 'retrystorm' option, not valid for "
            f"{kind!r}: {chunk!r}")
    if kind == "failslow":
        # The generic 'm=' option carries the fail-slow multiplier.
        factor, mean = mean, None
    try:
        return FaultEvent(at, kind, replica, until=until, p=p, dst=dst,
                          delay_mean_s=mean, factor=factor, shard=shard,
                          dst_shard=dst_shard)
    except ValueError as error:
        raise ValueError(f"{error} (in {chunk!r})") from None


def _parse_geo_event(kind: str, rest: str, chunk: str) -> FaultEvent:
    time_text, colon, target = rest.partition(":")
    target = target.strip()
    if not colon or not target:
        raise ValueError(
            f"{kind!r} needs a datacenter target, e.g. "
            f"'{kind}@240:dc1': {chunk!r}")
    at, until = _parse_time(time_text.strip(), kind, chunk)
    dc = target
    peer_dcs = to_dc = factor = None
    if kind == "wanpart":
        near, bar, far = target.partition("|")
        if not bar:
            raise ValueError(
                f"'wanpart' needs 'dc|dc[,dc...]' (the isolated DC and "
                f"the far side): {chunk!r}")
        dc = near.strip()
        peer_dcs = tuple(name.strip() for name in far.split(",")
                         if name.strip())
    elif kind == "wandegrade":
        src, arrow, tail = target.partition(">")
        if not arrow:
            raise ValueError(
                f"'wandegrade' needs 'src>dst[,xN]': {chunk!r}")
        dc = src.strip()
        tail_parts = [part.strip() for part in tail.split(",") if part.strip()]
        if not tail_parts:
            raise ValueError(
                f"'wandegrade' needs a destination DC: {chunk!r}")
        to_dc = tail_parts[0]
        for option in tail_parts[1:]:
            if not option.startswith("x") or factor is not None:
                raise ValueError(
                    f"'wandegrade' options are a single 'xN' multiplier, "
                    f"got {option!r}: {chunk!r}")
            try:
                factor = float(option[1:])
            except ValueError:
                raise ValueError(
                    f"bad 'wandegrade' multiplier {option!r} in {chunk!r}")
    try:
        return FaultEvent(at, kind, until=until, factor=factor, dc=dc,
                          peer_dcs=peer_dcs, to_dc=to_dc)
    except ValueError as error:
        raise ValueError(f"{error} (in {chunk!r})") from None


def _parse_time(text: str, kind: str,
                chunk: str) -> Tuple[float, Optional[float]]:
    if text.startswith("-"):
        raise ValueError(
            f"fault time must be >= 0, got {text!r} in {chunk!r}")
    start_text, dash, end_text = text.partition("-")
    try:
        at = float(start_text)
    except ValueError:
        raise ValueError(f"bad fault time {start_text!r} in {chunk!r}")
    if math.isnan(at):
        raise ValueError(f"fault time may not be NaN in {chunk!r}")
    if not dash:
        return at, None
    if kind in REPLICA_KINDS or kind == "corrupt":
        raise ValueError(
            f"{kind!r} is a point event and takes no time window: {chunk!r}")
    try:
        until = float(end_text)
    except ValueError:
        raise ValueError(f"bad window end {end_text!r} in {chunk!r}")
    if math.isnan(until):
        raise ValueError(f"fault window end may not be NaN in {chunk!r}")
    return at, until


def _parse_options(part: str, p: Optional[float], mean: Optional[float],
                   factor: Optional[float], chunk: str
                   ) -> Tuple[Optional[float], Optional[float],
                              Optional[float]]:
    values = {"p": p, "m": mean, "factor": factor}
    for option in part.split(","):
        key, _eq, value_text = option.strip().partition("=")
        key = key.strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"bad value for {key!r} in {chunk!r}")
        if key not in values:
            raise ValueError(
                f"unknown option {key!r} in {chunk!r} "
                f"(expected p=, m=, or factor=)")
        if values[key] is not None:
            raise ValueError(
                f"option '{key}=' given more than once in {chunk!r}")
        values[key] = value
    return values["p"], values["m"], values["factor"]


def _parse_index(text: str, chunk: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad replica target {text!r} in {chunk!r}")


def _parse_target(text: str,
                  chunk: str) -> Tuple[Optional[int], Optional[int]]:
    """One target as ``(shard, replica)``: ``2`` -> (None, 2),
    ``1.2`` -> (1, 2), ``1.*`` -> (1, None)."""
    text = text.strip()
    if "." not in text:
        return None, _parse_index(text, chunk)
    shard_text, _dot, replica_text = text.partition(".")
    shard = _parse_index(shard_text, chunk)
    if replica_text.strip() == "*":
        return shard, None
    return shard, _parse_index(replica_text, chunk)


class FaultInjector:
    """Applies a faultload to a cluster.

    The cluster must expose ``crash_replica``, ``reboot_replica``,
    ``live_replicas``, and -- when the faultload uses the extension
    kinds -- ``partition_replica``/``heal_replica``, ``apply_nemesis``
    (windowed message faults), ``apply_storage_fault`` (disk faults),
    ``block_oneway``/``unblock_oneway``, and for the geo kinds
    ``fail_dc``/``restore_dc``, ``wan_partition``/``heal_wan_partition``
    and ``wan_degrade`` (a geo-configured cluster).  Targets are opaque
    here: the injector passes ``event.src_target`` (or a pick from
    ``live_replicas``) straight through, and asks the cluster's
    ``target_label`` for the recorder's grammar-shaped label.
    """

    #: point events against one replica -> the cluster verb they call
    _REPLICA_VERBS = {"crash": "crash_replica", "reboot": "reboot_replica",
                      "partition": "partition_replica",
                      "heal": "heal_replica"}

    def __init__(self, sim, cluster, faultload: Faultload,
                 rng: Optional[random.Random] = None):
        self._sim = sim
        self._cluster = cluster
        self.faultload = faultload
        self._rng = rng or random.Random(0)
        self.injected: List[tuple] = []  # (time, kind, target)
        self.nemesis_windows: List[FaultEvent] = []
        self.storage_faults: List[FaultEvent] = []
        self.geo_faults: List[FaultEvent] = []
        self._dc_crashes = 0
        self._recorder = recorder_of(sim)

    def _record(self, kind: str, **fields) -> None:
        if self._recorder is not None:
            self._recorder.record(kind, None, **fields)

    def _record_targets(self, kind: str, fault: str, *targets) -> None:
        """One replica (or a directed ``src>dst`` pair) as the cluster
        labels it."""
        if self._recorder is not None:
            label = self._cluster.target_label
            self._recorder.record(
                kind, None, fault=fault,
                target=">".join(label(target) for target in targets))

    def arm(self) -> None:
        for event in self.faultload.events:
            if event.kind in NEMESIS_KINDS:
                # Windowed faults are installed up front; the nemesis
                # itself gates them by simulated time.
                self._cluster.apply_nemesis(event)
                self.nemesis_windows.append(event)
                self._record("nemesis.window", fault=event.kind,
                             at=event.at, until=event.until)
            elif event.kind in STORAGE_KINDS:
                # Same discipline for disk faults: the storage nemesis
                # gates windows (and schedules corruption instants).
                self._cluster.apply_storage_fault(event)
                self.storage_faults.append(event)
                self._record("nemesis.window", fault=event.kind,
                             at=event.at, until=event.until)
            elif event.kind == "wandegrade":
                # Windowed link slowdown: armed up front, gated by
                # simulated time inside the geo delay model.
                self._cluster.wan_degrade(event)
                self.geo_faults.append(event)
                self._record("nemesis.window", fault=event.kind,
                             at=event.at, until=event.until,
                             dc=event.dc, to_dc=event.to_dc)
            elif event.kind in GEO_KINDS:
                self.geo_faults.append(event)
                self._sim.call_at(event.at, self._fire, event)
                if event.until is not None and not math.isinf(event.until):
                    self._sim.call_at(event.until, self._restore_geo, event)
            elif event.kind == RETRYSTORM_KIND:
                self._sim.call_at(event.at, self._fire, event)
                if not math.isinf(event.until):
                    self._sim.call_at(event.until, self._heal_retrystorm,
                                      event)
            elif event.kind == ONEWAY_KIND:
                self._sim.call_at(event.at, self._fire, event)
                if event.until is not None and not math.isinf(event.until):
                    self._sim.call_at(event.until, self._heal_oneway, event)
            else:
                self._sim.call_at(event.at, self._fire, event)

    def _fire(self, event: FaultEvent) -> None:
        # Record before mutating: crash listeners (proxy broken
        # connections, DC-wide crashes) fire synchronously inside the
        # cluster call, and the recorded cause must precede its
        # consequences in the ring.
        now = self._sim.now
        if event.kind in self._REPLICA_VERBS:
            target = event.src_target
            if event.replica is None:
                # crash@T:* / crash@T:1.* -- a random live replica (of
                # one shard, when qualified).
                live = self._cluster.live_replicas(event.shard)
                if not live:
                    return
                target = self._rng.choice(sorted(live))
            self.injected.append((now, event.kind, target))
            self._record_targets(
                "fault.heal" if event.kind == "heal" else "fault.inject",
                event.kind, target)
            getattr(self._cluster, self._REPLICA_VERBS[event.kind])(target)
        elif event.kind == ONEWAY_KIND:
            pair = (event.src_target, event.dst_target)
            self.injected.append((now, event.kind, pair))
            self._record_targets("fault.inject", event.kind, *pair)
            self._cluster.block_oneway(*pair)
        elif event.kind == "dcfail":
            self.injected.append((now, "dcfail", event.dc))
            self._record("fault.inject", fault="dcfail", target=event.dc,
                         dc=event.dc)
            self._dc_crashes += self._cluster.fail_dc(event.dc)
        elif event.kind == "wanpart":
            self.injected.append((now, "wanpart", (event.dc, event.peer_dcs)))
            self._record("fault.inject", fault="wanpart", target=event.dc,
                         dc=event.dc, peer_dcs=list(event.peer_dcs))
            self._cluster.wan_partition(event.dc, event.peer_dcs)
        else:  # retrystorm
            factor = event.factor if event.factor is not None else 8.0
            self.injected.append((now, "retrystorm", factor))
            self._record("fault.inject", fault="retrystorm", factor=factor)
            self._cluster.begin_slowdown(factor)

    def _heal_retrystorm(self, event: FaultEvent) -> None:
        self._cluster.end_slowdown()
        self.injected.append((self._sim.now, "heal-retrystorm", None))
        self._record("fault.heal", fault="retrystorm")

    def _heal_oneway(self, event: FaultEvent) -> None:
        pair = (event.src_target, event.dst_target)
        self._cluster.unblock_oneway(*pair)
        self.injected.append((self._sim.now, "heal-oneway", pair))
        self._record_targets("fault.heal", "oneway", *pair)

    def _restore_geo(self, event: FaultEvent) -> None:
        if event.kind == "dcfail":
            # Power back: re-enable the DC's watchdogs, which revive the
            # servers on their own -- autonomous, not an intervention.
            self._cluster.restore_dc(event.dc)
            self.injected.append((self._sim.now, "dcrestore", event.dc))
            self._record("fault.heal", fault="dcfail", target=event.dc,
                         dc=event.dc)
        else:
            self._cluster.heal_wan_partition(event.dc, event.peer_dcs)
            self.injected.append(
                (self._sim.now, "heal-wanpart", (event.dc, event.peer_dcs)))
            self._record("fault.heal", fault="wanpart", target=event.dc,
                         dc=event.dc, peer_dcs=list(event.peer_dcs))

    @property
    def faults_injected(self) -> int:
        # Every replica taken down by a DC outage is one injected fault;
        # a retry-storm trigger is one fault for the whole cluster.
        return (sum(1 for _t, kind, _r in self.injected
                    if kind in ("crash", "retrystorm"))
                + self._dc_crashes)

    @property
    def interventions(self) -> int:
        return sum(1 for _t, kind, _r in self.injected if kind == "reboot")
