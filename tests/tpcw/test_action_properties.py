"""Property-based tests: deterministic replication of the bookstore.

The core obligation from Section 4 of the paper: applying the same action
sequence to two copies of the state must produce identical states -- with
all non-determinism (clocks, random draws) frozen into the actions.  Every
copy here is restored from one genesis snapshot, as a replica boots, so
the copies share the rows of the insert-only tables.
"""

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


# Action generators: all "random" fields are drawn by hypothesis and
# frozen into the action, exactly like the facade does with its RNG.
def action_strategy(num_items, num_customers):
    item = st.integers(1, num_items)
    cart = st.integers(1, 12)
    customer = st.integers(1, num_customers)
    stamp = st.floats(0.0, 1e6, allow_nan=False)
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
    admin = st.builds(acts.AdminConfirm, i_id=item,
                      new_cost=st.floats(1.0, 300.0, allow_nan=False),
                      new_image=st.just("i"), new_thumbnail=st.just("t"),
                      timestamp=stamp)
    register = st.builds(
        acts.CreateNewCustomer,
        fname=st.just("F"), lname=st.just("L"), street1=st.text(max_size=8),
        street2=st.just(""), city=st.just("C"), state_code=st.just("SP"),
        zip_code=st.just("1"), co_id=st.integers(1, 92), phone=st.just("1"),
        email=st.just("e"), birthdate=stamp, data=st.just("d"),
        discount=st.floats(0.0, 0.5, allow_nan=False), timestamp=stamp)
    return st.one_of(create_cart, do_cart, refresh, buy, admin, register)


sequences = st.lists(
    action_strategy(PARAMS.real_items, PARAMS.num_customers),
    min_size=1, max_size=30)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sequence=sequences)
def test_same_sequence_yields_identical_state(sequence):
    a, b = fresh_app(), fresh_app()
    for action in sequence:
        action.apply(a)
        action.apply(b)
    assert canonical(a) == canonical(b)


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
