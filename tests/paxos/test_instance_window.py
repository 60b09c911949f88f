"""The engine's instance windows: a dense slot list behind a mapping.

The property drives :class:`InstanceWindow` and a plain ``dict`` through
the same random sequence of sets, reads, deletes, prefix truncations,
inserts below the base and fast-forward jumps, and compares every answer.
The engine-level tests check that a checkpoint truncation and a state
transfer leave no per-instance slot below ``log_start``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos.window import InstanceWindow

from tests.paxos.helpers import PaxosCluster


def _first_slot(window):
    """The lowest instance the window holds a slot for, filled or not."""
    return window.base if window.slots else None


def _truncate(reference, instance):
    for key in [key for key in reference if key < instance]:
        del reference[key]


def _assert_same(window, reference):
    assert list(window) == sorted(reference)
    assert list(window.items()) == sorted(reference.items())
    assert len(window) == len(reference)
    assert window == reference
    assert dict(window) == reference


# Instances stay near a moving floor: most operations land inside the
# window, some just below its base or past its end.
instance = st.integers(-6, 30)
operation = st.one_of(
    st.tuples(st.just("set"), instance, st.integers(0, 9)),
    st.tuples(st.just("get"), instance, st.none()),
    st.tuples(st.just("in"), instance, st.none()),
    st.tuples(st.just("pop"), instance, st.none()),
    st.tuples(st.just("del"), instance, st.none()),
    st.tuples(st.just("truncate"), instance, st.none()),
    # a state transfer: forget everything up to a point past the window
    st.tuples(st.just("jump"), st.integers(0, 40), st.none()),
)


@settings(max_examples=400, deadline=None)
@given(base=st.integers(0, 10), ops=st.lists(operation, max_size=60))
def test_window_answers_like_a_dict(base, ops):
    window, reference = InstanceWindow(base), {}
    floor = base
    for op, offset, value in ops:
        key = floor + offset
        if op == "set":
            window[key] = value
            reference[key] = value
        elif op == "get":
            assert window.get(key) == reference.get(key)
            assert window.get(key, "absent") == reference.get(key, "absent")
            if key in reference:
                assert window[key] == reference[key]
            else:
                with pytest.raises(KeyError):
                    window[key]
        elif op == "in":
            assert (key in window) == (key in reference)
        elif op == "pop":
            assert window.pop(key, "absent") == reference.pop(key, "absent")
        elif op == "del":
            if key in reference:
                del window[key]
                del reference[key]
            else:
                with pytest.raises(KeyError):
                    del window[key]
        elif op == "truncate":
            window.truncate_below(key)
            _truncate(reference, key)
            floor = max(floor, key)
        else:
            key = max(reference, default=floor) + offset
            window.truncate_below(key + 1)
            _truncate(reference, key + 1)
            floor = key + 1
        _assert_same(window, reference)
        if reference:
            assert _first_slot(window) <= min(reference)


def test_window_rejects_none():
    window = InstanceWindow()
    with pytest.raises(ValueError):
        window[3] = None


def _slot_floors(engine):
    floors = [_first_slot(window) for window in
              (engine.decided, engine._votes, engine.inst_rnd)]
    floors += list(engine._vote_sets)
    return [floor for floor in floors if floor is not None]


def _busy_cluster():
    cluster = PaxosCluster(3, enable_fast=True)
    cluster.run(1.0)
    for _ in range(12):
        cluster.submit(0)
        cluster.submit(1)
        cluster.run(0.2)
    cluster.run(2.0)
    return cluster


def test_truncation_leaves_no_slot_below_log_start():
    engine = _busy_cluster().engines[0]
    assert len(engine.decided) >= 6 and engine.votes and len(engine.inst_rnd)
    cut = engine.watermark - 2
    engine.truncate_below(cut)
    assert engine.log_start == cut
    assert all(floor >= cut for floor in _slot_floors(engine))
    assert engine.decided and min(engine.votes) >= cut
    assert all(entry[1] >= cut for entry in engine.wal.entries()
               if entry[0] in ("vote", "inst_rnd"))


def test_transfer_leaves_no_slot_below_log_start():
    engine = _busy_cluster().engines[2]
    jump = engine.watermark + 5
    engine.fast_forward(jump)
    assert engine.log_start == jump + 1
    assert all(floor > jump for floor in _slot_floors(engine))
    assert not engine.votes and not engine.decided


def test_a_vote_slot_is_its_wal_entry():
    engine = _busy_cluster().engines[1]
    frames = {id(entry) for entry in engine.wal.entries()}
    assert engine._votes
    assert all(id(entry) in frames for entry in engine._votes.values())
