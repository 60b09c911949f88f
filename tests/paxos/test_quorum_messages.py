"""Unit tests for quorum arithmetic, ballots, batches, and merging."""

import pytest

from repro.paxos import Ballot, Batch, Command, classic_quorum, fast_quorum, recovery_threshold
from repro.paxos.messages import NOOP, NULL_BALLOT, merge_batches


# ----------------------------------------------------------------------
# quorums (the Treplica rule from Section 2 of the paper)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (4, 3),
                                        (5, 3), (8, 5), (12, 7)])
def test_classic_quorum_is_majority(n, expected):
    assert classic_quorum(n) == expected


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 3), (5, 4), (8, 6),
                                        (12, 9)])
def test_fast_quorum_is_ceil_three_quarters(n, expected):
    assert fast_quorum(n) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_fast_quorum_intersection_property(n):
    """Any classic quorum must intersect the intersection of any two fast
    quorums -- the Fast Paxos requirement |Q| + 2|F| > 2N."""
    assert classic_quorum(n) + 2 * fast_quorum(n) > 2 * n


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_recovery_threshold_positive(n):
    assert recovery_threshold(n) >= 1
    assert recovery_threshold(n) == classic_quorum(n) + fast_quorum(n) - n


def test_quorum_rejects_empty_cluster():
    with pytest.raises(ValueError):
        classic_quorum(0)
    with pytest.raises(ValueError):
        fast_quorum(0)


# ----------------------------------------------------------------------
# ballots
# ----------------------------------------------------------------------
def test_ballot_ordering_by_round_then_proposer():
    assert Ballot(1, 0) < Ballot(2, 0)
    assert Ballot(1, 0) < Ballot(1, 1)
    assert Ballot(2, 0) > Ballot(1, 5)


def test_null_ballot_smaller_than_everything():
    assert NULL_BALLOT < Ballot(0, 0)
    assert NULL_BALLOT < Ballot(0, 0, fast=True)


def test_fast_flag_not_part_of_ordering_but_part_of_identity():
    fast = Ballot(3, 1, fast=True)
    slow = Ballot(3, 1, fast=False)
    assert not fast < slow and not slow < fast
    assert not fast > slow and not slow > fast
    assert fast <= slow <= fast and fast >= slow >= fast
    assert fast != slow
    assert hash(fast) != hash(slow)


def test_ballot_max_works():
    ballots = [Ballot(1, 2), Ballot(3, 0), Ballot(2, 9)]
    assert max(ballots) == Ballot(3, 0)


# ----------------------------------------------------------------------
# batches and merging
# ----------------------------------------------------------------------
def make_batch(*uids):
    return Batch(tuple(Command(uid, None) for uid in uids))


def test_batch_key_is_uid_tuple():
    batch = make_batch("a", "b")
    assert batch.key == ("a", "b")
    assert len(batch) == 2


def test_noop_batch():
    assert NOOP.is_noop
    assert len(NOOP) == 0
    assert NOOP.size_mb() > 0  # still costs headers on the wire


def test_batch_size_scales_with_commands():
    small = make_batch("a")
    large = make_batch("a", "b", "c", "d")
    assert large.size_mb() > small.size_mb()


def test_merge_batches_dedups_and_is_deterministic():
    first = make_batch("c", "a")
    second = make_batch("b", "a")
    merged = merge_batches([first, second])
    assert merged.key == ("a", "b", "c")
    assert merge_batches([second, first]).key == merged.key


def test_merge_batches_empty():
    assert merge_batches([]).is_noop
    assert merge_batches([NOOP, NOOP]).is_noop
