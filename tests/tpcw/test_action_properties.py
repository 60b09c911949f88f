"""Property-based tests: deterministic replication of the bookstore.

The core obligation from Section 4 of the paper: applying the same action
sequence to two copies of the state must produce identical states -- with
all non-determinism (clocks, random draws) frozen into the actions.  Every
copy here is restored from one genesis snapshot, as a replica boots, so
the copies share the rows of the insert-only tables.
"""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tpcw import actions as acts
from repro.tpcw.app import BookstoreApplication
from repro.tpcw.population import PopulationParams, populate
from repro.tpcw.state import BookstoreState

from tests.tpcw.helpers import canonical, detached_runtime, structure

PARAMS = PopulationParams(num_items=60, num_ebs=1, entity_scale=0.003, seed=3)
_GENESIS = BookstoreApplication(populate(PARAMS), 1.0).snapshot()


def fresh_app(snapshot=_GENESIS) -> BookstoreApplication:
    app = BookstoreApplication(BookstoreState())
    app.restore(snapshot)
    return app


STAMP = st.floats(0.0, 1e6, allow_nan=False)


# Action generators: all "random" fields are drawn by hypothesis and
# frozen into the action, exactly like the facade does with its RNG.
def admin_strategy(item):
    return st.builds(acts.AdminConfirm, i_id=item,
                     new_cost=st.floats(1.0, 300.0, allow_nan=False),
                     new_image=st.just("i"), new_thumbnail=st.just("t"),
                     timestamp=STAMP)


def register_strategy():
    return st.builds(
        acts.CreateNewCustomer,
        fname=st.just("F"), lname=st.just("L"), street1=st.text(max_size=8),
        street2=st.just(""), city=st.just("C"), state_code=st.just("SP"),
        zip_code=st.just("1"), co_id=st.integers(1, 92), phone=st.just("1"),
        email=st.just("e"), birthdate=STAMP, data=st.just("d"),
        discount=st.floats(0.0, 0.5, allow_nan=False), timestamp=STAMP)


def action_strategy(num_items, num_customers):
    item = st.integers(1, num_items)
    cart = st.integers(1, 12)
    customer = st.integers(1, num_customers)
    stamp = STAMP
    create_cart = st.builds(acts.CreateEmptyCart, timestamp=stamp)
    do_cart = st.builds(acts.DoCart, sc_id=cart, add_item=st.one_of(st.none(), item),
                        updates=st.lists(st.tuples(item, st.integers(0, 4)),
                                         max_size=3),
                        fallback_item=item, timestamp=stamp)
    refresh = st.builds(acts.RefreshSession, c_id=customer, timestamp=stamp)
    buy = st.builds(acts.BuyConfirm, sc_id=cart, c_id=customer,
                    cc_type=st.just("VISA"), cc_number=st.just("4"),
                    cc_name=st.just("N"), cc_expire=stamp,
                    shipping_type=st.just("AIR"), timestamp=stamp,
                    ship_date_offset=st.floats(0, 1e5, allow_nan=False),
                    auth_id=st.text(min_size=1, max_size=6))
    return st.one_of(create_cart, do_cart, refresh, buy,
                     admin_strategy(item), register_strategy())


sequences = st.lists(
    action_strategy(PARAMS.real_items, PARAMS.num_customers),
    min_size=1, max_size=30)

# Purchases on a few items, by genesis or newly registered customers,
# some shipped to new addresses: every one inserts rows, and an earlier
# registration or cost change alters what they are built from.
FEW_ITEMS = st.integers(1, 3)
purchase = st.builds(
    lambda sc_id, i_id, c_id, ship_addr, stamp: [
        acts.DoCart(sc_id, i_id, (), i_id, stamp),
        acts.BuyConfirm(sc_id, c_id, "VISA", "4", "N", stamp, "AIR", stamp,
                        0.0, "A", ship_addr=ship_addr)],
    sc_id=st.integers(1, 12), i_id=FEW_ITEMS,
    c_id=st.integers(1, PARAMS.num_customers + 3),
    ship_addr=st.one_of(st.none(), st.tuples(
        st.text(max_size=2), st.just(""), st.just("C"), st.just("SP"),
        st.just("1"), st.integers(1, 3))),
    stamp=STAMP)
inserting_sequences = st.lists(
    st.one_of(sequences, purchase), min_size=1, max_size=8).map(
        lambda chunks: [action for chunk in chunks for action in chunk])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences)
def test_same_sequence_yields_identical_state(sequence):
    a, b = fresh_app(), fresh_app()
    for action in sequence:
        action.apply(a)
        action.apply(b)
    assert canonical(a) == canonical(b)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=inserting_sequences,
       divergence=st.one_of(register_strategy(), admin_strategy(FEW_ITEMS)))
def test_replicas_share_inserted_rows_only_when_built_alike(sequence,
                                                            divergence):
    """Replicas that apply one action object share every row it inserts;
    a replica whose history differs gets rows built from its own state."""
    private = copy.deepcopy(sequence)  # before any action holds a row
    a, b = fresh_app(), fresh_app()
    for action in sequence:
        action.apply(a)
        action.apply(b)
    for table in BookstoreState.INSERT_ONLY:
        rows_a, rows_b = getattr(a.state, table), getattr(b.state, table)
        assert rows_a.keys() == rows_b.keys()
        for key, row in rows_a.items():
            assert rows_b[key] is row, (table, key)
    # A third replica one divergent action ahead applies the same action
    # objects; it must end exactly where a private replay ends.
    diverged, replay = fresh_app(), fresh_app()
    copy.deepcopy(divergence).apply(diverged)
    divergence.apply(replay)
    for action in sequence:
        action.apply(diverged)
    for action in private:
        action.apply(replay)
    assert canonical(diverged) == canonical(replay)
    diverged.state.check_invariants()


def _shared_rows(snapshot):
    """(table, key, row, row content) of every row a snapshot shares."""
    return [(table, key, row, structure(row))
            for table, rows in zip(BookstoreState.INSERT_ONLY, snapshot.shared)
            for key, row in rows.items()]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(before=sequences, sequence=sequences)
def test_actions_on_one_restore_never_reach_another(before, sequence):
    """Two apps restored from one snapshot share its insert-only rows:
    whatever one of them applies, the other's state and every shared row
    stay exactly as they were."""
    source = fresh_app()
    for action in before:  # a snapshot that also shares non-genesis rows
        action.apply(source)
    snapshot = source.snapshot()
    shared = _shared_rows(snapshot)
    writer, bystander = fresh_app(snapshot), fresh_app(snapshot)
    untouched = canonical(bystander)
    for action in sequence:
        action.apply(writer)
    assert canonical(bystander) == untouched
    # The same row objects (a row has identity equality) with the same
    # content, held by the snapshot and by the bystander alike.
    assert _shared_rows(snapshot) == shared
    for table, key, row, _content in shared:
        assert getattr(bystander.state, table)[key] is row


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences)
def test_invariants_hold_under_any_sequence(sequence):
    app = fresh_app()
    for action in sequence:
        action.apply(app)
    app.state.check_invariants()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences)
def test_snapshot_restore_roundtrip_mid_sequence(sequence):
    app = fresh_app()
    half = len(sequence) // 2
    for action in sequence[:half]:
        action.apply(app)
    snapshot = app.snapshot()
    replica = fresh_app()
    replica.restore(snapshot)
    for action in sequence[half:]:
        action.apply(app)
        action.apply(replica)
    assert canonical(app) == canonical(replica)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences,
       cuts=st.sets(st.integers(0, 30), max_size=6),
       rebase_after=st.integers(1, 12))
def test_base_plus_journal_replay_equals_live_state(sequence, cuts,
                                                    rebase_after):
    """A checkpoint is ``(base, journal)``: at any cut, and across any
    number of rebases, restoring the base and replaying the journal must
    equal the live state, which must equal a full pickle round trip."""
    live = detached_runtime(fresh_app())
    # Size the state so the real rule (journal MB >= state MB) folds the
    # journal into a new base about every ``rebase_after`` actions.
    live.app.size_multiplier = (rebase_after * 0.0004
                                / live.app.state.nominal_size_mb())
    taken = []  # (record payload, canonical state when it was taken)

    def checkpoint():
        payload = live.snapshot_state()
        pickled = fresh_app()
        pickled.restore(live.app.snapshot())
        assert canonical(pickled) == canonical(live.app)
        taken.append((payload, canonical(live.app)))

    for index, action in enumerate(sequence):
        if index in cuts:
            checkpoint()
        live._apply(action)
    checkpoint()
    # Every record -- also one whose base a later rebase replaced --
    # still rebuilds exactly the state it covered.
    for payload, expected in taken:
        replica = detached_runtime(fresh_app())
        replica.restore_state(payload)
        assert canonical(replica.app) == expected
        assert replica.journal_actions == len(payload[1])
        assert replica.snapshot_state()[0] is payload[0]  # no re-encode


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences)
def test_results_are_deterministic_too(sequence):
    a, b = fresh_app(), fresh_app()
    results_a = [action.apply(a) for action in sequence]
    results_b = [action.apply(b) for action in sequence]
    assert results_a == results_b
