"""Faultload grammar: nemesis kinds, per-kind target validation, errors.

Covers the parse-time validation the original grammar lacked (a bare
``reboot@390`` used to silently map ``*`` to ``None`` and crash the
injector later) plus the nemesis extension kinds and the injector's
wiring of nemesis/oneway events into the cluster.
"""

import pytest

from repro.faults.faultload import (
    ALL_KINDS,
    FaultEvent,
    FaultInjector,
    Faultload,
)
from repro.sim import Simulator


# ----------------------------------------------------------------------
# new grammar: windowed nemesis kinds
# ----------------------------------------------------------------------
def test_parse_drop_window():
    event = Faultload.parse("drop@10-60:p=0.2").events[0]
    assert event == FaultEvent(10.0, "drop", until=60.0, p=0.2)


def test_parse_dup_window():
    event = Faultload.parse("dup@10-60:p=0.1").events[0]
    assert event.kind == "dup"
    assert (event.at, event.until, event.p) == (10.0, 60.0, 0.1)


def test_parse_delay_with_mean():
    event = Faultload.parse("delay@10-60:p=0.3:m=0.05").events[0]
    assert event.kind == "delay"
    assert event.p == 0.3
    assert event.delay_mean_s == 0.05


def test_parse_delay_mean_defaults_to_none():
    assert Faultload.parse("delay@10-60:p=0.3").events[0].delay_mean_s is None


def test_parse_pair_scoped_drop():
    event = Faultload.parse("drop@5-9:1>2:p=0.5").events[0]
    assert (event.replica, event.dst) == (1, 2)
    assert (event.at, event.until, event.p) == (5.0, 9.0, 0.5)


def test_parse_oneway_point_and_window():
    point = Faultload.parse("oneway@30:2>3").events[0]
    assert (point.at, point.until, point.replica, point.dst) == (30.0, None,
                                                                 2, 3)
    windowed = Faultload.parse("oneway@30-90:0>1").events[0]
    assert (windowed.at, windowed.until) == (30.0, 90.0)


def test_parse_mixed_spec():
    faultload = Faultload.parse(
        "crash@240:*, drop@10-60:p=0.2, oneway@30:2>3, reboot@390:1")
    assert [e.kind for e in faultload.events] == ["crash", "drop",
                                                  "oneway", "reboot"]
    assert faultload.nemesis_events() == (faultload.events[1],)
    assert faultload.crash_count() == 1


# ----------------------------------------------------------------------
# dotted shard-qualified targets (sharded deployments)
# ----------------------------------------------------------------------
def test_parse_shard_qualified_crash():
    event = Faultload.parse("crash@240:1.2").events[0]
    assert (event.shard, event.replica) == (1, 2)
    assert event.src_target == (1, 2)


def test_parse_shard_qualified_random_crash():
    event = Faultload.parse("crash@240:1.*").events[0]
    assert (event.shard, event.replica) == (1, None)
    assert event.src_target == (1, None)


def test_parse_shard_qualified_reboot():
    event = Faultload.parse("reboot@390:0.3").events[0]
    assert (event.kind, event.shard, event.replica) == ("reboot", 0, 3)


def test_parse_shard_qualified_oneway_pair():
    event = Faultload.parse("oneway@30:0.1>1.2").events[0]
    assert (event.shard, event.replica) == (0, 1)
    assert (event.dst_shard, event.dst) == (1, 2)
    assert event.src_target == (0, 1)
    assert event.dst_target == (1, 2)


def test_unqualified_targets_keep_plain_src_target():
    event = Faultload.parse("crash@240:2").events[0]
    assert event.shard is None
    assert event.src_target == 2
    pair = Faultload.parse("oneway@30:2>3").events[0]
    assert pair.src_target == 2
    assert pair.dst_target == 3


@pytest.mark.parametrize("spec", [
    "oneway@30:0.1>2",     # pair shard-qualified at one end only
    "oneway@30:1>0.2",
    "oneway@30:0.*>1.2",   # '*' never valid in a pair
    "reboot@390:1.*",      # random target only for crash
    "crash@240:1.x",       # bad replica part
    "crash@240:x.2",       # bad shard part
])
def test_dotted_grammar_rejects_malformed_targets(spec):
    with pytest.raises(ValueError):
        Faultload.parse(spec)


def test_shard_qualifier_must_be_non_negative():
    with pytest.raises(ValueError):
        FaultEvent(10.0, "crash", 2, shard=-1)
    with pytest.raises(ValueError):
        FaultEvent(10.0, "oneway", 1, dst=2, shard=0, dst_shard=-1)


# ----------------------------------------------------------------------
# parse errors: every malformed chunk names itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec, fragment", [
    ("drop10-60", "missing '@'"),                 # no @ at all
    ("crash@abc", "bad fault time"),              # unparsable time
    ("drop@10-xyz:p=0.1", "bad window end"),      # unparsable window end
    ("crash@100:banana", "bad replica target"),   # unparsable target
    ("oneway@30:a>b", "bad replica target"),      # unparsable pair
    ("explode@100:1", "unknown fault kind"),
    ("drop@10-60:q=0.2", "unknown option"),
    ("drop@10-60:p=zap", "bad value"),
    ("crash@240:1:2", "more than one target"),    # a second bare target
    ("crash@240:1:*", "more than one target"),    # '*' after a target
    ("reboot@390:2:0.1", "more than one target"),  # dotted after bare
    ("drop@10-60:p=0.2:p=0.9", "more than once"),  # an option, repeated
    ("failslow@1-2:1:m=4:m=9", "more than once"),
    ("retrystorm@1-2:factor=2,factor=3", "more than once"),  # ...in one list
])
def test_parse_errors_identify_the_chunk(spec, fragment):
    with pytest.raises(ValueError) as error:
        Faultload.parse(spec)
    assert fragment in str(error.value)


@pytest.mark.parametrize("spec", [
    "reboot@390",          # the original silent-'*' bug: no target
    "reboot@390:*",        # explicit random target, still invalid
    "partition@60:*",
    "heal@120:*",
])
def test_non_crash_replica_kinds_need_fixed_target(spec):
    with pytest.raises(ValueError):
        Faultload.parse(spec)


@pytest.mark.parametrize("spec", [
    "crash@10-60:1",       # replica kinds are point events
    "crash@100:1>2",       # ...and take no pair
    "drop@10-60",          # nemesis kinds need a probability
    "drop@10:p=0.2",       # ...and a window
    "drop@60-10:p=0.2",    # window must move forwards
    "drop@10-60:p=0",      # p in (0, 1]
    "drop@10-60:p=1.5",
    "drop@10-60:1:p=0.5",  # bare target invalid: pairs only
    "drop@10-60:p=0.2:m=4",     # m= is delay-only among message kinds
    "delay@10-60:p=0.3:m=0",    # delay mean must be > 0
    "delay@10-60:p=0.3:m=-1",
    "oneway@30",           # oneway needs its pair
    "oneway@30:2",
    "oneway@30:2>2",       # ...with distinct ends
    "oneway@90-30:0>1",    # backwards window
    "oneway@30:2>3:p=0.5", # no probability on a hard cut
])
def test_per_kind_constraints_rejected_at_parse_time(spec):
    with pytest.raises(ValueError):
        Faultload.parse(spec)


def test_fault_event_direct_construction_validates_too():
    with pytest.raises(ValueError):
        FaultEvent(390.0, "reboot")            # the bugfix, sans parser
    with pytest.raises(ValueError):
        FaultEvent(10.0, "drop", until=60.0)   # no probability
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "crash", 0)           # negative time
    with pytest.raises(ValueError):
        FaultEvent(10.0, "drop", replica=1, until=60.0, p=0.5)  # half a pair
    assert "oneway" in ALL_KINDS


# ----------------------------------------------------------------------
# storage extension grammar: torn / corrupt / fsynclie / failslow
# ----------------------------------------------------------------------
def test_parse_corrupt_point_event():
    event = Faultload.parse("corrupt@240:1").events[0]
    assert event == FaultEvent(240.0, "corrupt", 1)


def test_parse_torn_window_with_probability():
    event = Faultload.parse("torn@200-400:1:p=0.5").events[0]
    assert (event.kind, event.at, event.until) == ("torn", 200.0, 400.0)
    assert (event.replica, event.p) == (1, 0.5)


def test_parse_torn_open_ended_window():
    event = Faultload.parse("torn@200:2").events[0]
    assert (event.at, event.until, event.p) == (200.0, None, None)


def test_parse_fsynclie_window():
    event = Faultload.parse("fsynclie@200-300:0").events[0]
    assert (event.kind, event.at, event.until, event.replica) == (
        "fsynclie", 200.0, 300.0, 0)


def test_parse_failslow_maps_m_to_factor():
    event = Faultload.parse("failslow@200-300:1:m=4").events[0]
    assert (event.kind, event.factor) == ("failslow", 4.0)
    assert event.delay_mean_s is None


def test_parse_shard_qualified_storage_target():
    event = Faultload.parse("corrupt@240:1.2").events[0]
    assert (event.shard, event.replica) == (1, 2)
    assert event.src_target == (1, 2)


def test_storage_events_selector():
    faultload = Faultload.parse(
        "crash@240:1, torn@200-400:1, drop@10-60:p=0.2, corrupt@300:2")
    assert [e.kind for e in faultload.storage_events()] == ["torn", "corrupt"]


@pytest.mark.parametrize("spec, fragment", [
    ("torn@-5:1", "must be >= 0"),            # negative time
    ("torn@nan:1", "NaN"),                    # NaN time
    ("torn@200-nan:1", "NaN"),                # NaN window end
    ("corrupt@200-300:1", "point event"),     # corrupt takes no window
    ("corrupt@240", "fixed replica"),         # storage kinds need a target
    ("corrupt@240:*", "random target"),       # ...a fixed one
    ("torn@200:1>2", "pair"),                 # no directed pairs
    ("torn@400-200:1", "end after it starts"),
    ("torn@200:1:p=0", "(0, 1]"),             # p out of range
    ("torn@200:1:p=1.5", "(0, 1]"),
    ("fsynclie@200-300:1:p=0.5", "key=value"),  # p only for torn
    ("corrupt@240:1:m=3", "key=value"),       # m only for failslow
    ("torn@200-400:1:m=4", "'m='"),           # torn accepts p=, never m=
    ("failslow@200-300:1:m=0.5", ">= 1.0"),   # multiplier must slow down
    ("failslow@200-300:1:m=inf", ">= 1.0"),   # ...and must be finite
    ("fsync@200-300:1", "unknown fault kind"),
])
def test_storage_grammar_rejections_identify_the_chunk(spec, fragment):
    with pytest.raises(ValueError) as error:
        Faultload.parse(spec)
    assert fragment in str(error.value)
    assert spec.split(":")[0].split("@")[0] in str(error.value)


def test_storage_fault_event_direct_construction_validates_too():
    with pytest.raises(ValueError):
        FaultEvent(float("nan"), "torn", 1)       # NaN time
    with pytest.raises(ValueError):
        FaultEvent(float("inf"), "corrupt", 1)    # infinite time
    with pytest.raises(ValueError):
        FaultEvent(200.0, "fsynclie", 1, until=float("nan"))
    with pytest.raises(ValueError):
        FaultEvent(200.0, "failslow", 1, until=300.0, factor=0.25)
    for kind in ("torn", "corrupt", "fsynclie", "failslow"):
        assert kind in ALL_KINDS


# ----------------------------------------------------------------------
# injector wiring for the new kinds
# ----------------------------------------------------------------------
class RecordingCluster:
    """Fake cluster capturing the nemesis/oneway calls with timestamps."""

    def __init__(self, sim):
        self._sim = sim
        self.calls = []

    def apply_nemesis(self, event):
        self.calls.append((self._sim.now, "nemesis", event.kind))

    def apply_storage_fault(self, event):
        self.calls.append((self._sim.now, "storage", event.kind))

    def block_oneway(self, src, dst):
        self.calls.append((self._sim.now, "block", (src, dst)))

    def unblock_oneway(self, src, dst):
        self.calls.append((self._sim.now, "unblock", (src, dst)))


def test_injector_installs_nemesis_windows_up_front():
    sim = Simulator()
    cluster = RecordingCluster(sim)
    injector = FaultInjector(sim, cluster, Faultload.parse(
        "drop@10-60:p=0.2, dup@20-30:p=0.1"))
    injector.arm()
    # Windowed faults are handed over at arm() time; the nemesis gates
    # them by simulated time itself.
    assert cluster.calls == [(0.0, "nemesis", "drop"), (0.0, "nemesis", "dup")]
    assert [e.kind for e in injector.nemesis_windows] == ["drop", "dup"]


def test_injector_cuts_and_heals_oneway_on_schedule():
    sim = Simulator()
    cluster = RecordingCluster(sim)
    injector = FaultInjector(sim, cluster,
                             Faultload.parse("oneway@30-90:2>3"))
    injector.arm()
    sim.run(until=100.0)
    assert cluster.calls == [(30.0, "block", (2, 3)),
                             (90.0, "unblock", (2, 3))]
    assert (30.0, "oneway", (2, 3)) in injector.injected
    assert (90.0, "heal-oneway", (2, 3)) in injector.injected


def test_injector_point_oneway_never_heals():
    sim = Simulator()
    cluster = RecordingCluster(sim)
    injector = FaultInjector(sim, cluster, Faultload.parse("oneway@30:2>3"))
    injector.arm()
    sim.run(until=1000.0)
    assert cluster.calls == [(30.0, "block", (2, 3))]


def test_injector_counts_ignore_nemesis_events():
    sim = Simulator()
    cluster = RecordingCluster(sim)
    injector = FaultInjector(sim, cluster, Faultload.parse(
        "drop@10-60:p=0.2, oneway@30:2>3"))
    injector.arm()
    sim.run(until=100.0)
    assert injector.faults_injected == 0
    assert injector.interventions == 0


def test_injector_hands_storage_faults_to_the_cluster_up_front():
    sim = Simulator()
    cluster = RecordingCluster(sim)
    injector = FaultInjector(sim, cluster, Faultload.parse(
        "torn@200-400:1, corrupt@240:2, fsynclie@100-150:0"))
    injector.arm()
    # Like nemesis windows: handed over at arm() time, the storage
    # nemesis gates them by simulated time itself.
    assert cluster.calls == [(0.0, "storage", "torn"),
                             (0.0, "storage", "corrupt"),
                             (0.0, "storage", "fsynclie")]
    assert [e.kind for e in injector.storage_faults] == [
        "torn", "corrupt", "fsynclie"]
    sim.run(until=500.0)
    # Storage faults are environment misbehaviour, not injected crashes:
    # they never count towards the autonomy denominators.
    assert injector.faults_injected == 0
    assert injector.interventions == 0
