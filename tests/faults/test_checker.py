"""The safety checker itself: synthetic traces and checker validity.

Two layers of evidence that the oracle works:

* unit tests feed hand-built traces with one seeded violation each and
  assert the checker reports exactly that violation (and nothing on the
  clean/transfer-skip variants);
* a mutation test breaks quorum intersection for real
  (``classic_quorum_override=1``) and asserts the checker catches the
  resulting split-brain in an actual nemesis run -- a checker that
  passes the mutant would be vacuous.
"""

import pytest

from repro.faults.checker import SafetyChecker, SafetyViolation, Violation
from repro.sim import Simulator
from repro.sim.trace import EventLog, Tracer
from tests.faults.helpers import run_lock_service_under_nemesis


# ======================================================================
# synthetic traces
# ======================================================================
def make_tracer(max_events=1_000_000):
    log = EventLog(Simulator())
    tracer = Tracer(max_events)
    log.subscribe(SafetyChecker.KINDS, tracer.take)
    return log, tracer


def emit_clean_history(log):
    """Two replicas decide/deliver the same three instances; r0's client
    gets acks for both of its commands."""
    for instance, key in [(0, ("r0.0:a1",)), (1, ("r1.0:a1",)),
                          (2, ("r0.0:a2",))]:
        for replica in ("r0", "r1"):
            log.emit("paxos.decide", replica, instance=instance, key=key,
                     inc=0)
            log.emit("paxos.deliver", replica, instance=instance, key=key,
                     fresh=key, inc=0)
    log.emit("treplica.ack", "r0", uid="r0.0:a1", instance=0)
    log.emit("treplica.ack", "r0", uid="r0.0:a2", instance=2)


def test_clean_history_passes():
    log, tracer = make_tracer()
    emit_clean_history(log)
    checker = SafetyChecker(tracer)
    assert checker.ok
    assert checker.violations() == []
    checker.assert_ok()  # must not raise


def test_empty_trace_passes():
    log, tracer = make_tracer()
    assert SafetyChecker(tracer).ok


def test_decide_disagreement_is_flagged():
    log, tracer = make_tracer()
    log.emit("paxos.decide", "r0", instance=5, key=("r0.0:a1",), inc=0)
    log.emit("paxos.decide", "r1", instance=5, key=("r1.0:a9",), inc=0)
    violations = SafetyChecker(tracer).violations()
    assert [v.kind for v in violations] == ["agreement"]
    assert "instance 5" in violations[0].detail
    with pytest.raises(SafetyViolation):
        SafetyChecker(tracer).assert_ok()


def test_deliver_disagreement_is_flagged():
    log, tracer = make_tracer()
    key_a, key_b = ("r0.0:a1",), ("r2.0:a4",)
    log.emit("paxos.decide", "r0", instance=3, key=key_a, inc=0)
    log.emit("paxos.deliver", "r0", instance=3, key=key_a, fresh=key_a, inc=0)
    log.emit("paxos.deliver", "r1", instance=3, key=key_b, fresh=key_b, inc=0)
    kinds = [v.kind for v in SafetyChecker(tracer).violations()]
    assert "deliver-agreement" in kinds


def test_out_of_order_delivery_is_flagged():
    log, tracer = make_tracer()
    log.emit("paxos.deliver", "r0", instance=4, key=("x",), fresh=(), inc=0)
    log.emit("paxos.deliver", "r0", instance=4, key=("x",), fresh=(), inc=0)
    log.emit("paxos.deliver", "r0", instance=3, key=("y",), fresh=(), inc=0)
    kinds = [v.kind for v in SafetyChecker(tracer).violations()]
    assert kinds.count("order") == 2  # the repeat and the regression


def test_order_is_per_incarnation():
    """A rebooted replica legitimately redelivers from its checkpoint."""
    log, tracer = make_tracer()
    log.emit("paxos.deliver", "r0", instance=7, key=("x",), fresh=(), inc=0)
    log.emit("paxos.deliver", "r0", instance=3, key=("y",), fresh=(), inc=1)
    log.emit("paxos.deliver", "r0", instance=4, key=("z",), fresh=(), inc=1)
    assert SafetyChecker(tracer).ok


def test_duplicate_uid_is_flagged():
    log, tracer = make_tracer()
    log.emit("paxos.deliver", "r0", instance=1, key=("u1",), fresh=("u1",),
             inc=0)
    log.emit("paxos.deliver", "r0", instance=2, key=("u1",), fresh=("u1",),
             inc=0)
    violations = SafetyChecker(tracer).violations()
    # Flagged by both the per-stream and the cross-instance dedup rules.
    assert violations and {v.kind for v in violations} == {"duplicate"}
    assert "u1" in violations[0].detail


def test_acked_but_never_decided_is_flagged():
    log, tracer = make_tracer()
    log.emit("treplica.ack", "r0", uid="ghost", instance=2)
    violations = SafetyChecker(tracer).violations()
    assert [v.kind for v in violations] == ["lost-ack"]
    assert "ghost" in violations[0].detail


def test_acked_command_skipped_by_stream_is_flagged():
    """r1 delivers instances 1 and 3 but not 2, which r0's client saw
    complete -- the acked command vanished from r1's history."""
    log, tracer = make_tracer()
    uid = "r0.0:a9"
    log.emit("paxos.decide", "r0", instance=2, key=(uid,), inc=0)
    log.emit("paxos.deliver", "r0", instance=2, key=(uid,), fresh=(uid,),
             inc=0)
    log.emit("treplica.ack", "r0", uid=uid, instance=2)
    log.emit("paxos.deliver", "r1", instance=1, key=("other",),
             fresh=("other",), inc=0)
    log.emit("paxos.deliver", "r1", instance=3, key=("more",),
             fresh=("more",), inc=0)
    violations = SafetyChecker(tracer).violations()
    assert any(v.kind == "lost-ack" and "r1#inc0" in v.detail
               for v in violations)


def test_checkpoint_transfer_skip_is_not_a_violation():
    """A replica that installs a remote checkpoint skips the instances
    the snapshot covers; that's recovery, not loss, and later delivery
    resumes above the transfer watermark."""
    log, tracer = make_tracer()
    uid = "r0.0:a1"
    log.emit("paxos.decide", "r0", instance=2, key=(uid,), inc=0)
    log.emit("paxos.deliver", "r0", instance=2, key=(uid,), fresh=(uid,),
             inc=0)
    log.emit("treplica.ack", "r0", uid=uid, instance=2)
    log.emit("paxos.deliver", "r1", instance=1, key=("w",), fresh=("w",),
             inc=0)
    log.emit("paxos.transfer", "r1", upto=4, inc=0)
    log.emit("paxos.deliver", "r1", instance=5, key=("z",), fresh=("z",),
             inc=0)
    assert SafetyChecker(tracer).violations() == []


def test_cross_incarnation_duplicate_delivery_is_flagged():
    """Consensus re-decided u1 (fast-collision repropose) at instance 8;
    inc 0 deduped the repeat, but the reboot forgot the first delivery
    (checkpoint without dedup memory) and applied u1 a second time."""
    log, tracer = make_tracer()
    log.emit("paxos.deliver", "r0", instance=5, key=("u1",), fresh=("u1",),
             inc=0)
    log.emit("paxos.transfer", "r0", upto=7, inc=1)
    log.emit("paxos.deliver", "r0", instance=8, key=("u1",), fresh=("u1",),
             inc=1)
    violations = SafetyChecker(tracer).violations()
    assert [v.kind for v in violations] == ["duplicate"]
    assert "inc 1" in violations[0].detail


def test_same_instance_replay_across_incarnations_passes():
    """An un-checkpointed suffix is legitimately redelivered after a
    reboot: the same uid at the *same* instance is replay, not a dup."""
    log, tracer = make_tracer()
    log.emit("paxos.deliver", "r0", instance=5, key=("u1",), fresh=("u1",),
             inc=0)
    log.emit("paxos.deliver", "r0", instance=5, key=("u1",), fresh=("u1",),
             inc=1)
    assert SafetyChecker(tracer).violations() == []


def test_accept_conflict_is_flagged():
    """One acceptor, one (instance, ballot), two different values: its
    durable vote must have evaporated between the two signatures."""
    log, tracer = make_tracer()
    log.emit("paxos.accept", "r0", instance=3, round=1, proposer=0, fast=False,
             key=("u1",))
    log.emit("paxos.accept", "r0", instance=3, round=1, proposer=0, fast=False,
             key=("u2",))
    violations = SafetyChecker(tracer).violations()
    assert [v.kind for v in violations] == ["accept-conflict"]
    assert "instance 3" in violations[0].detail


def test_same_value_revote_is_not_a_conflict():
    log, tracer = make_tracer()
    for _ in range(2):  # retransmitted Phase2a, identical vote
        log.emit("paxos.accept", "r0", instance=3, round=1, proposer=0,
                 fast=False, key=("u1",))
    assert SafetyChecker(tracer).violations() == []


def test_different_ballot_revote_is_not_a_conflict():
    """Voting a different value in a *higher* ballot is just Paxos."""
    log, tracer = make_tracer()
    log.emit("paxos.accept", "r0", instance=3, round=1, proposer=0, fast=True,
             key=("u1",))
    log.emit("paxos.accept", "r0", instance=3, round=2, proposer=1, fast=False,
             key=("u2",))
    assert SafetyChecker(tracer).violations() == []


def test_violations_are_bounded():
    log, tracer = make_tracer()
    for i in range(300):
        log.emit("treplica.ack", "r0", uid=f"ghost-{i}", instance=i)
    assert len(SafetyChecker(tracer).violations()) == 50
    assert len(SafetyChecker(tracer).violations(max_violations=3)) == 3


def test_truncated_audit_is_a_violation():
    """An audit trail cut at its bound must not pass as clean: of two
    conflicting decisions for instance 1 it kept only the first, and
    the checker says the trail is incomplete instead of judging it."""
    def conflicting(log):
        log.emit("paxos.decide", "r0", instance=1, key=("u1",), inc=0)
        log.emit("paxos.decide", "r1", instance=1, key=("u2",), inc=0)

    log, tracer = make_tracer(max_events=1)
    conflicting(log)
    assert len(tracer.events) == 1 and tracer.dropped == 1
    checker = SafetyChecker(tracer)
    assert not checker.ok
    violations = checker.violations()
    assert [v.kind for v in violations] == ["trace-truncated"]
    assert "dropped 1 events" in violations[0].detail
    log, tracer = make_tracer()
    conflicting(log)
    assert [v.kind for v in SafetyChecker(tracer).violations()] == [
        "agreement"]


def test_violation_str():
    violation = Violation("agreement", "instance 5: split")
    assert str(violation) == "[agreement] instance 5: split"


# ======================================================================
# checker validity: the mutant must fail
# ======================================================================
@pytest.mark.nemesis
def test_broken_quorum_mutation_fails_the_checker():
    """Shrink the classic quorum to 1 acceptor on a 3-replica cluster:
    quorum intersection is gone, so under message loss two proposers can
    get 'their' value accepted for the same instance.  The checker must
    catch the divergence on at least one sweep seed -- otherwise it
    could not distinguish a correct protocol from a broken one."""
    caught = []
    for seed in range(8):
        run = run_lock_service_under_nemesis(
            3, seed, classic_quorum_override=1, enable_fast=False,
            drop_p=0.2, delay_p=0.25)
        violations = run.checker.violations()
        if violations:
            caught.append((seed, violations))
            assert any(v.kind in ("agreement", "deliver-agreement")
                       for v in violations)
    assert caught, "checker passed every broken-quorum run: it is vacuous"


@pytest.mark.nemesis
def test_intact_quorum_same_seeds_pass():
    """Control for the mutation test: the same seeds and nemesis
    intensities with the real quorum rule pass the checker."""
    for seed in range(8):
        run = run_lock_service_under_nemesis(
            3, seed, enable_fast=False, drop_p=0.2, delay_p=0.25)
        run.checker.assert_ok()
