"""The replicated object store: entities, indexes, and the size model.

``BookstoreState`` is the critical state the paper replicates through
Treplica (the nine entity classes plus the indexes that stand in for the
database's).  It is mutated exclusively by deterministic actions and read
by the facade.

The **nominal size model** converts entity counts into the paper's state
size (MB).  The per-entity footprints are calibrated so that the standard
population at 30/50/70 emulated browsers yields ~300/500/700 MB, and so
that a write-heavy run grows the state by a few hundred MB over the
measurement interval, matching Section 5.1.  The real in-simulator Python
footprint is independent (populations can be scaled down for bench speed
while keeping the nominal size).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.tpcw.model import (
    Address,
    Author,
    CCXact,
    Country,
    Customer,
    Item,
    Order,
    ShoppingCart,
)

# Nominal per-entity footprints (KB) -- the Java-heap cost of one entity
# including references, strings, and container overhead.
ENTITY_KB = {
    "customer": 0.57,
    "address": 0.165,
    "country": 0.10,
    "author": 0.55,
    "item": 1.20,
    "order": 1.00,
    "order_line": 0.51,
    "ccxact": 0.46,
    "cart": 1.50,
}

#: Best-seller window: TPC-W computes best sellers over the 3333 most
#: recent orders.
BESTSELLER_WINDOW = 3333


class BookstoreState:
    """All replicated data plus derived indexes.

    Indexes (by-uname, by-subject, title/author token indexes, the
    best-seller window) are maintained incrementally by the mutators below;
    they stand in for the database indexes of the original three-tier
    deployment and keep facade reads cheap.

    The state splits at the line the workload draws: the
    :attr:`INSERT_ONLY` tables only ever gain rows, and nothing writes a
    row once its ``add_*`` has run, so a checkpoint base shares those
    rows instead of encoding them (``BookstoreApplication.snapshot``);
    every other attribute is updatable and copied.
    """

    INSERT_ONLY = ("countries", "authors", "addresses", "orders", "ccxacts",
                   "address_by_key", "customer_by_uname")
    """Tables whose rows are never updated or deleted once inserted.

    No TPC-W interaction updates or deletes a row of COUNTRY, AUTHOR,
    ADDRESS, ORDERS, ORDER_LINE or CC_XACTS: Buy Confirm and Customer
    Registration insert them, everything else reads them (an order's
    lines are frozen into a tuple by :meth:`add_order`).  The two maps
    hold immutable keys and values (an address's dedup key -> its id, a
    username -> its customer id) and, like the tables, only grow.  What
    *is* written after insert -- ``Customer.c_login``/``c_expiration``,
    ``Item.i_stock``/``i_cost``/``i_image``/``i_thumbnail``/
    ``i_pub_date``/``i_related``, cart contents, the list-valued
    indexes, the allocators and the 2PC bookkeeping -- stays outside.
    """

    def __init__(self) -> None:
        self.countries: Dict[int, Country] = {}
        self.addresses: Dict[int, Address] = {}
        self.authors: Dict[int, Author] = {}
        self.customers: Dict[int, Customer] = {}
        self.items: Dict[int, Item] = {}
        self.orders: Dict[int, Order] = {}
        self.ccxacts: Dict[int, CCXact] = {}
        self.carts: Dict[int, ShoppingCart] = {}

        # indexes
        self.customer_by_uname: Dict[str, int] = {}
        self.address_by_key: Dict[Tuple, int] = {}
        self.items_by_subject: Dict[str, List[int]] = {}
        self.title_tokens: Dict[str, List[int]] = {}
        self.author_tokens: Dict[str, List[int]] = {}
        self.orders_by_customer: Dict[int, List[int]] = {}
        self.recent_orders: Deque[int] = deque()
        self.bestseller_counts: Dict[int, int] = {}

        # id allocators (deterministic: advanced only by replicated actions
        # and the deterministic population pass)
        self.next_customer_id = 1
        self.next_address_id = 1
        self.next_order_id = 1
        self.next_cart_id = 1

        self.order_line_count = 0

        # 2PC bookkeeping (repro.shard): stock deltas taken by a prepared
        # but undecided cross-shard transaction (tx_id -> applied
        # (i_id, net_delta) pairs, so an abort can undo them exactly),
        # plus the ids already decided so retried prepares/decisions are
        # idempotent.  Both stay empty on unsharded deployments.
        self.pending_txns: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        self.finished_txns: Set[str] = set()
        # Durable commit/abort record of the *home* group's 2PC outcome
        # (tx_id -> True for commit, False for abort).  Written by the
        # BuyConfirm commit record and by the termination protocol's
        # TxResolve (presumed abort); because both travel through the
        # home group's totally ordered log, every replica agrees on the
        # outcome and a resolve can never race the commit record.
        self.txn_decisions: Dict[str, bool] = {}

    # ==================================================================
    # mutators (called from population and from deterministic actions)
    # ==================================================================
    def add_country(self, country: Country) -> None:
        self.countries[country.co_id] = country

    def add_author(self, author: Author) -> None:
        self.authors[author.a_id] = author
        for token in _tokens(author.a_fname, author.a_lname):
            self.author_tokens.setdefault(token, [])

    def add_item(self, item: Item) -> None:
        self.items[item.i_id] = item
        self.items_by_subject.setdefault(item.i_subject, []).append(item.i_id)
        for token in _tokens(item.i_title):
            self.title_tokens.setdefault(token, []).append(item.i_id)
        author = self.authors.get(item.i_a_id)
        if author is not None:
            for token in _tokens(author.a_fname, author.a_lname):
                self.author_tokens.setdefault(token, []).append(item.i_id)

    def add_address(self, address: Address) -> None:
        self.addresses[address.addr_id] = address
        self.address_by_key[address.key()] = address.addr_id
        self.next_address_id = max(self.next_address_id, address.addr_id + 1)

    def add_customer(self, customer: Customer) -> None:
        self.customers[customer.c_id] = customer
        self.customer_by_uname[customer.c_uname] = customer.c_id
        self.next_customer_id = max(self.next_customer_id, customer.c_id + 1)

    def add_order(self, order: Order) -> None:
        order.lines = tuple(order.lines)  # insert-only from here on
        self.orders[order.o_id] = order
        self.orders_by_customer.setdefault(order.o_c_id, []).append(order.o_id)
        self.next_order_id = max(self.next_order_id, order.o_id + 1)
        self.order_line_count += len(order.lines)
        # Maintain the sliding best-seller window incrementally.
        if len(self.recent_orders) >= BESTSELLER_WINDOW:
            evicted = self.orders[self.recent_orders.popleft()]
            for line in evicted.lines:
                remaining = self.bestseller_counts.get(line.ol_i_id, 0) - line.ol_qty
                if remaining > 0:
                    self.bestseller_counts[line.ol_i_id] = remaining
                else:
                    self.bestseller_counts.pop(line.ol_i_id, None)
        self.recent_orders.append(order.o_id)
        for line in order.lines:
            self.bestseller_counts[line.ol_i_id] = (
                self.bestseller_counts.get(line.ol_i_id, 0) + line.ol_qty)

    def add_ccxact(self, ccxact: CCXact) -> None:
        self.ccxacts[ccxact.cx_o_id] = ccxact

    def add_cart(self, cart: ShoppingCart) -> None:
        self.carts[cart.sc_id] = cart
        self.next_cart_id = max(self.next_cart_id, cart.sc_id + 1)

    # ==================================================================
    # the nominal size model
    # ==================================================================
    def nominal_size_mb(self) -> float:
        """State size (MB) under the calibrated per-entity footprints."""
        kb = (len(self.customers) * ENTITY_KB["customer"]
              + len(self.addresses) * ENTITY_KB["address"]
              + len(self.countries) * ENTITY_KB["country"]
              + len(self.authors) * ENTITY_KB["author"]
              + len(self.items) * ENTITY_KB["item"]
              + len(self.orders) * ENTITY_KB["order"]
              + self.order_line_count * ENTITY_KB["order_line"]
              + len(self.ccxacts) * ENTITY_KB["ccxact"]
              + len(self.carts) * ENTITY_KB["cart"])
        return kb / 1024.0

    # ==================================================================
    # integrity checks (used by tests)
    # ==================================================================
    def check_invariants(self) -> None:
        for uname, c_id in self.customer_by_uname.items():
            assert self.customers[c_id].c_uname == uname
        for order in self.orders.values():
            assert order.o_c_id in self.customers
            for line in order.lines:
                assert line.ol_i_id in self.items
                assert line.ol_qty > 0
        for item in self.items.values():
            assert item.i_stock >= 0, f"negative stock for item {item.i_id}"
        for cart in self.carts.values():
            for i_id, qty in cart.lines.items():
                assert i_id in self.items and qty > 0


def _tokens(*texts: str) -> List[str]:
    tokens: List[str] = []
    for text in texts:
        tokens.extend(word.lower() for word in text.split() if word)
    return tokens
