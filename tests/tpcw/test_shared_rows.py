"""Copy what can change, share what cannot.

A bookstore snapshot pickles the updatable part of the state and shares
the rows of the insert-only tables (``BookstoreState.INSERT_ONLY``); every
state restored from it gets its own dict of those rows.  These tests pin
the sharing and the isolation around it in a deployed cluster, and the
two structural pieces: frozen order lines and the snapshot's size.
"""

import pickle

from repro.harness.cluster import RobustStoreCluster
from repro.tpcw import actions as acts
from repro.tpcw.app import BookstoreApplication, BookstoreSnapshot
from repro.tpcw.model import Order, OrderLine
from repro.tpcw.population import PopulationParams
from repro.tpcw.state import BookstoreState

from tests.harness.helpers import tiny_config

PARAMS = PopulationParams(num_items=60, num_ebs=1, entity_scale=0.003, seed=3)


def _table(snapshot: BookstoreSnapshot, name: str) -> dict:
    return snapshot.shared[BookstoreState.INSERT_ONLY.index(name)]


def test_replicas_share_genesis_rows_in_tables_of_their_own():
    cluster = RobustStoreCluster(tiny_config(replicas=3))
    genesis_orders = _table(cluster.genesis, "orders")
    o_id, order = next(iter(genesis_orders.items()))
    states = [runtime.app.state for runtime in cluster.runtimes]
    for state in states:
        assert state.orders[o_id] is order
        assert state.orders is not genesis_orders
        for name in BookstoreState.INSERT_ONLY:
            assert getattr(state, name) == _table(cluster.genesis, name)
    for name in BookstoreState.INSERT_ONLY:
        assert len({id(getattr(state, name)) for state in states}) == 3
    # The updatable rows are each replica's own.
    assert states[0].customers[1] is not states[1].customers[1]
    assert states[0].items[1] is not states[1].items[1]

    # A buy-confirm applied on one replica alone inserts into that
    # replica's tables only.
    writer = cluster.runtimes[0].app
    sc_id = acts.CreateEmptyCart(timestamp=1.0).apply(writer)
    acts.DoCart(sc_id, add_item=1, updates=(), fallback_item=2,
                timestamp=1.0).apply(writer)
    new_o_id = acts.BuyConfirm(
        sc_id, c_id=1, cc_type="VISA", cc_number="4", cc_name="N",
        cc_expire=2.0, shipping_type="AIR", timestamp=1.0,
        ship_date_offset=0.0, auth_id="A").apply(writer)
    assert new_o_id in states[0].orders and new_o_id in states[0].ccxacts
    for state in states[1:]:
        assert new_o_id not in state.orders
        assert new_o_id not in state.ccxacts
    assert new_o_id not in genesis_orders


def test_order_lines_are_frozen_once_inserted():
    state = BookstoreState()
    order = Order(1, 1, 0.0, sub_total=1.0, tax=0.0, total=1.0,
                  ship_type="AIR", ship_date=0.0, bill_addr_id=1,
                  ship_addr_id=1, status="PENDING")
    order.lines.append(OrderLine(1, 1, 7, 2, 0.0, ""))
    state.add_order(order)
    assert isinstance(order.lines, tuple) and len(order.lines) == 1
    populated = BookstoreApplication.populated(PARAMS).state
    assert all(isinstance(o.lines, tuple) for o in populated.orders.values())


def test_snapshot_len_is_its_encoded_bytes():
    app = BookstoreApplication.populated(PARAMS)
    snapshot = app.snapshot()
    assert isinstance(snapshot.encoded, bytes)
    assert len(snapshot) == len(snapshot.encoded)
    # What is encoded is the updatable part only: no insert-only table.
    updatable, multiplier = pickle.loads(snapshot.encoded)
    assert multiplier == PARAMS.size_multiplier
    assert not set(updatable) & set(BookstoreState.INSERT_ONLY)
    assert set(updatable) | set(BookstoreState.INSERT_ONLY) \
        == set(vars(app.state))
