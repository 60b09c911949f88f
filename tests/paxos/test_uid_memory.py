"""The learner's exactly-once memory: one uid map plus a shared,
append-only delivery log.

The property drives the real engine methods (``_decide``, which advances
the watermark, ``fast_forward`` and reboot-seeding from
``delivered_up_to``) through random sequences and compares every answer
with a reference that keeps the memory the straightforward way: a set of
the uids this incarnation decided and a dict from each delivered uid to
the instance of its first delivery.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos import Command, PaxosConfig, PaxosEngine
from repro.paxos.messages import Batch
from repro.sim import Network, NetworkParams, Node, SeedTree, Simulator

POOL = [f"u{k}" for k in range(10)]


class ReferenceLearner:
    """Decided-uid set + uid -> first-delivery-instance dict."""

    def __init__(self, start_instance, delivered_uids=()):
        self.watermark = start_instance - 1
        self.decided = {}
        self.decided_uids = set()
        self.enqueued = {uid: start_instance - 1 for uid in delivered_uids}
        self.deliveries = []

    def decide(self, instance, uids):
        if instance in self.decided or instance <= self.watermark:
            return
        self.decided[instance] = uids
        self.decided_uids.update(uids)
        self._advance()

    def fast_forward(self, instance, uids):
        if instance <= self.watermark:
            return  # a stale transfer changes nothing
        for uid in uids:
            self.enqueued.setdefault(uid, instance)
        for i in [i for i in self.decided if i <= instance]:
            del self.decided[i]
        self.watermark = instance
        self._advance()

    def _advance(self):
        while self.watermark + 1 in self.decided:
            self.watermark += 1
            fresh = []
            for uid in self.decided[self.watermark]:
                if uid not in self.enqueued:
                    self.enqueued[uid] = self.watermark
                    fresh.append(uid)
            self.deliveries.append((self.watermark, tuple(fresh)))

    def delivered_up_to(self, instance):
        return frozenset(uid for uid, at in self.enqueued.items()
                         if at <= instance)


def _node():
    sim = Simulator()
    return Node(sim, Network(sim, NetworkParams(), seed=SeedTree(1)), "r0")


def _engine(node, start_instance=0, delivered_uids=()):
    return PaxosEngine(node, ["r0", "r1", "r2"], 0, PaxosConfig(),
                       SeedTree(1), start_instance=start_instance,
                       delivered_uids=delivered_uids)


def _batch(uids):
    return Batch(tuple(Command(uid, None) for uid in uids))


def _deliveries(engine):
    return [(instance, tuple(command.uid for command in fresh))
            for instance, fresh in engine.delivery.drain()]


def _assert_same_memory(engine, reference):
    assert engine.watermark == reference.watermark
    for uid in POOL:
        assert engine._is_decided(uid) == (uid in reference.decided_uids), uid
    assert _deliveries(engine) == reference.deliveries
    reference.deliveries.clear()
    for instance in range(reference.watermark - 8, reference.watermark + 3):
        view = engine.delivered_up_to(instance)
        uids = list(view)
        assert len(uids) == len(view) == len(set(uids))
        assert set(uids) == reference.delivered_up_to(instance), instance
    assert engine.dedup_uids == len(
        reference.decided_uids | set(reference.enqueued))


uid_lists = st.lists(st.sampled_from(POOL), unique=True, max_size=4)
operation = st.one_of(
    # decide an instance at or just above the next one (gaps hold back
    # delivery until they are filled)
    st.tuples(st.just("decide"), st.integers(1, 3), uid_lists),
    # a state transfer, stale or ahead of the watermark
    st.tuples(st.just("transfer"), st.integers(-3, 4),
              st.lists(st.sampled_from(POOL), unique=True, max_size=8)),
    # reboot from a checkpoint at or below the watermark
    st.tuples(st.just("reboot"), st.integers(0, 3), st.just([])),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(operation, max_size=40))
def test_one_uid_map_answers_like_a_set_and_a_dict(ops):
    node = _node()
    engine, reference = _engine(node), ReferenceLearner(0)
    for op, offset, uids in ops:
        if op == "decide":
            instance = engine.watermark + offset
            engine._decide(instance, _batch(uids))
            reference.decide(instance, uids)
        elif op == "transfer":
            instance = engine.watermark + offset
            engine.fast_forward(instance, uids)
            reference.fast_forward(instance, uids)
        else:
            floor = engine.log_start - 1  # this incarnation's first record
            at = max(floor, engine.watermark - offset)
            engine = _engine(node, at + 1, engine.delivered_up_to(at))
            reference = ReferenceLearner(at + 1,
                                         reference.delivered_up_to(at))
        _assert_same_memory(engine, reference)


def test_a_restored_uid_counts_as_decided_only_once_decided_again():
    node = _node()
    engine = _engine(node)
    engine._decide(0, _batch(["a", "b"]))
    rebooted = _engine(node, 1, engine.delivered_up_to(0))
    assert not rebooted._is_decided("a")
    rebooted._decide(1, _batch(["a", "c"]))
    assert rebooted._is_decided("a") and rebooted._is_decided("c")
    assert not rebooted._is_decided("b")
    # "a" was delivered before the checkpoint: only "c" is fresh.
    assert _deliveries(rebooted) == [(1, ("c",))]
    assert list(rebooted.delivered_up_to(1)) == ["a", "b", "c"]


def test_a_stale_transfer_leaves_the_memory_untouched():
    engine = _engine(_node())
    engine._decide(0, _batch(["a", "b"]))
    engine._decide(1, _batch(["c"]))
    engine._decide(3, _batch(["d"]))  # decided, held back by the gap at 2
    before = (dict(engine._uids), list(engine._log),
              list(engine._mark_instances), list(engine._mark_lengths))
    engine.fast_forward(1, ["a", "b", "c", "d", "stale"])
    engine.fast_forward(0, ["zz"])
    after = (dict(engine._uids), list(engine._log),
             list(engine._mark_instances), list(engine._mark_lengths))
    assert after == before
    assert engine.watermark == 1 and 3 in engine.decided


def test_delivered_up_to_is_a_view_of_the_growing_log():
    engine = _engine(_node())
    engine._decide(0, _batch(["a"]))
    early = engine.delivered_up_to(0)
    engine._decide(1, _batch(["b", "a"]))
    late = engine.delivered_up_to(1)
    assert early.log is late.log
    assert list(early) == ["a"] and list(late) == ["a", "b"]
    assert list(engine.delivered_up_to(-1)) == []
