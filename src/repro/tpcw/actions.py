"""Deterministic write actions for RobustStore.

Each action is the replicated equivalent of one of the original SQL
transactions.  Per Section 4 of the paper, every source of
non-determinism -- order timestamps, random discounts, random fallback
items, credit-card authorization ids -- is computed by the facade *before*
the action is created and travels inside it, so all replicas apply the
exact same transition.

``cpu_cost_s`` values are the simulated execution costs charged on every
replica (each replica executes every update -- the root of the write-rate
dependent scaling in Figures 3/4).

The simulated network and the Paxos log hand every replica the same
action object, so an action that inserts rows of the insert-only tables
(``BookstoreState.INSERT_ONLY``) builds them once and keeps them: the
next replica reuses them if every state-derived input they were built
from (ids, subtotal, cart lines, discount, addresses) is equal on it,
and otherwise builds, inserts and keeps rows of its own.  Sharing therefore
never depends on replicas agreeing, and no replica writes a row once
it is inserted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.treplica.actions import Action
from repro.tpcw.model import Address, CCXact, Customer, Order, OrderLine, ShoppingCart

#: How long a customer session lasts from its login (2 hours).
SESSION_S = 2 * 3600.0


class CreateEmptyCart(Action):
    """The start of a shopping session: allocate a cart id."""

    cpu_cost_s = 0.0001
    size_mb = 0.0002

    def __init__(self, timestamp: float):
        self.timestamp = timestamp

    def apply(self, app):
        state = app.state
        sc_id = state.next_cart_id
        state.add_cart(ShoppingCart(sc_id, self.timestamp))
        return sc_id


class DoCart(Action):
    """The Shopping Cart interaction: add an item and/or update quantities.

    ``fallback_item`` is the random item the spec adds when the cart would
    otherwise be empty -- drawn by the facade, passed as an argument.
    """

    cpu_cost_s = 0.0002
    size_mb = 0.0005

    def __init__(self, sc_id: int, add_item: Optional[int],
                 updates: Sequence[Tuple[int, int]], fallback_item: int,
                 timestamp: float):
        self.sc_id = sc_id
        self.add_item = add_item
        self.updates = tuple(updates)
        self.fallback_item = fallback_item
        self.timestamp = timestamp

    def apply(self, app):
        state = app.state
        cart = state.carts.get(self.sc_id)
        if cart is None:
            cart = ShoppingCart(self.sc_id, self.timestamp)
            state.add_cart(cart)
        if self.add_item is not None and self.add_item in state.items:
            cart.lines[self.add_item] = cart.lines.get(self.add_item, 0) + 1
        for i_id, qty in self.updates:
            if qty <= 0:
                cart.lines.pop(i_id, None)
            elif i_id in state.items:
                cart.lines[i_id] = qty
        if not cart.lines:
            cart.lines[self.fallback_item] = 1
        cart.sc_time = self.timestamp
        return dict(cart.lines)


class RefreshSession(Action):
    """Buy Request touches the customer session (login/expiration).

    The pair goes to ``state.sessions``, not to the ``Customer`` row,
    which keeps its registration values and stays insert-only.
    """

    cpu_cost_s = 0.000075
    size_mb = 0.0002

    def __init__(self, c_id: int, timestamp: float):
        self.c_id = c_id
        self.session = (timestamp, timestamp + SESSION_S)

    def apply(self, app):
        state = app.state
        if self.c_id not in state.customers:
            return None
        state.sessions[self.c_id] = self.session
        return self.c_id


class CreateNewCustomer(Action):
    """Customer Registration: new customer + (possibly shared) address.

    The discount is the spec's random draw -- resolved by the facade.
    """

    cpu_cost_s = 0.0002
    size_mb = 0.0006

    def __init__(self, fname: str, lname: str, street1: str, street2: str,
                 city: str, state_code: str, zip_code: str, co_id: int,
                 phone: str, email: str, birthdate: float, data: str,
                 discount: float, timestamp: float, id_floor: int = 0):
        self.fname = fname
        self.lname = lname
        # The address's dedup key (Address.key()), also its row's columns.
        self.address = (street1, street2, city, state_code, zip_code, co_id)
        self.phone = phone
        self.email = email
        self.birthdate = birthdate
        self.data = data
        self.discount = discount
        self.timestamp = timestamp
        # Sharded deployments allocate each shard's dynamic customers in
        # a disjoint id block (repro.shard.partition) so the independent
        # groups never collide; 0 keeps the sequential unsharded ids.
        self.id_floor = id_floor
        # The rows this action last built (see the module docstring).
        self.built_address: Optional[Address] = None
        self.built_customer: Optional[Customer] = None

    def apply(self, app):
        state = app.state
        addr_id = _enter_address(self, state, self.address)
        c_id = max(state.next_customer_id, self.id_floor)
        customer = self.built_customer
        if customer is None or customer.c_id != c_id \
                or customer.c_addr_id != addr_id:
            uname = _digsyl_uname(c_id)
            customer = Customer(
                c_id, uname, uname.lower(), self.fname, self.lname, addr_id,
                self.phone, self.email,
                since=self.timestamp, last_login=self.timestamp,
                login=self.timestamp, expiration=self.timestamp + SESSION_S,
                discount=self.discount, balance=0.0, ytd_pmt=0.0,
                birthdate=self.birthdate, data=self.data)
            self.built_customer = customer
        state.add_customer(customer)
        return c_id


class BuyConfirm(Action):
    """The Buy Confirm interaction: order + lines + stock + CC transaction.

    The heaviest update of the mix.  Stock follows the spec: decrement,
    and restock by 21 when it would fall below 10.  The authorization id
    and ship-date offset are facade-drawn randomness.
    """

    cpu_cost_s = 0.00035
    size_mb = 0.0008

    def __init__(self, sc_id: int, c_id: int, cc_type: str, cc_number: str,
                 cc_name: str, cc_expire: float, shipping_type: str,
                 timestamp: float, ship_date_offset: float, auth_id: str,
                 ship_addr: Optional[Tuple[str, str, str, str, str, int]] = None,
                 comment: str = "",
                 foreign_items: frozenset = frozenset(),
                 tx_id: Optional[str] = None):
        self.sc_id = sc_id
        self.c_id = c_id
        self.cc_type = cc_type
        self.cc_number = cc_number
        self.cc_name = cc_name
        self.cc_expire = cc_expire
        self.shipping_type = shipping_type
        self.timestamp = timestamp
        self.ship_date_offset = ship_date_offset
        self.auth_id = auth_id
        # The ship address's dedup key (Address.key()), if one is given.
        self.ship_addr = None if ship_addr is None else tuple(ship_addr)
        self.comment = comment
        # Items whose stock another shard owns: their decrement is
        # prepared through 2PC on the owner group (repro.shard.txn), so
        # this local commit record must not touch them.
        self.foreign_items = foreign_items
        # Cross-shard runs stamp the commit record with the transaction
        # id so the home group's log doubles as the durable decision
        # record (state.txn_decisions) the termination protocol reads.
        self.tx_id = tx_id
        # The rows this action last built (see the module docstring):
        # the ship address, and (inputs, order, cc transaction).
        self.built_address: Optional[Address] = None
        self.built_order: Optional[Tuple[Tuple, Order, CCXact]] = None

    def apply(self, app):
        state = app.state
        if self.tx_id is not None \
                and state.txn_decisions.get(self.tx_id) is False:
            # A TxResolve was ordered ahead of this record: the tx is
            # already presumed-aborted, so the order must not happen.
            return None
        cart = state.carts.get(self.sc_id)
        customer = state.customers.get(self.c_id)
        if cart is None or customer is None or not cart.lines:
            if self.tx_id is not None:
                state.txn_decisions[self.tx_id] = False
            return None
        if self.ship_addr is not None:
            ship_addr_id = _enter_address(self, state, self.ship_addr)
        else:
            ship_addr_id = customer.c_addr_id

        discount = customer.c_discount
        sub_total = cart.subtotal(state.items, discount / 100.0
                                  if discount > 1.0 else discount)
        lines = tuple(sorted(cart.lines.items()))
        inputs = (state.next_order_id, sub_total, lines, discount,
                  customer.c_addr_id, ship_addr_id,
                  state.addresses[ship_addr_id].addr_co_id)
        built = self.built_order
        if built is None or built[0] != inputs:
            built = self.built_order = (inputs, *self._build_order(*inputs))
        _, order, ccxact = built
        for i_id, qty in lines:
            if i_id in self.foreign_items:
                continue
            item = state.items[i_id]
            if item.i_stock - qty < 10:
                item.i_stock = item.i_stock - qty + 21  # spec restock rule
            else:
                item.i_stock -= qty
        state.add_order(order)
        state.add_ccxact(ccxact)
        cart.lines.clear()
        cart.sc_time = self.timestamp
        if self.tx_id is not None:
            state.txn_decisions[self.tx_id] = True
        return order.o_id

    def _build_order(self, o_id: int, sub_total: float,
                     lines: Tuple[Tuple[int, int], ...], discount: float,
                     bill_addr_id: int, ship_addr_id: int,
                     co_id: int) -> Tuple[Order, CCXact]:
        tax = round(sub_total * 0.0825, 2)
        order = Order(o_id, self.c_id, self.timestamp,
                      sub_total=round(sub_total, 2), tax=tax,
                      total=round(sub_total + tax, 2),
                      ship_type=self.shipping_type,
                      ship_date=self.timestamp + self.ship_date_offset,
                      bill_addr_id=bill_addr_id, ship_addr_id=ship_addr_id,
                      status="PENDING",
                      lines=tuple(
                          OrderLine(ol_id, o_id, i_id, qty, discount,
                                    self.comment)
                          for ol_id, (i_id, qty) in enumerate(lines, 1)))
        return order, CCXact(o_id, self.cc_type, self.cc_number,
                             self.cc_name, self.cc_expire, self.auth_id,
                             order.o_total, self.timestamp, co_id)


class AdminConfirm(Action):
    """Admin Confirm: update an item's cost/images and recompute its
    related items from recent co-purchases (deterministic from state).

    Cross-shard runs (a sharded deployment updating an item whose stock
    another group owns) stamp the record with the 2PC transaction id,
    exactly like :class:`BuyConfirm`: the home log doubles as the
    durable decision record, and a resolve ordered ahead of this record
    (presumed abort) must keep it from applying.
    """

    cpu_cost_s = 0.00025
    size_mb = 0.0004

    def __init__(self, i_id: int, new_cost: float, new_image: str,
                 new_thumbnail: str, timestamp: float,
                 tx_id: Optional[str] = None):
        self.i_id = i_id
        self.new_cost = new_cost
        self.new_image = new_image
        self.new_thumbnail = new_thumbnail
        self.timestamp = timestamp
        self.tx_id = tx_id

    def apply(self, app):
        state = app.state
        if self.tx_id is not None \
                and state.txn_decisions.get(self.tx_id) is False:
            # A TxResolve was ordered ahead of this record: the tx is
            # already presumed-aborted, so the update must not happen.
            return None
        item = state.items.get(self.i_id)
        if item is None:
            if self.tx_id is not None:
                state.txn_decisions[self.tx_id] = False
            return None
        item.i_cost = self.new_cost
        item.i_image = self.new_image
        item.i_thumbnail = self.new_thumbnail
        item.i_pub_date = self.timestamp
        # Related items: the five items most frequently co-purchased with
        # this one in the best-seller window (the spec's related query).
        co_counts: Dict[int, int] = {}
        for o_id in state.recent_orders:
            order = state.orders.get(o_id)
            if order is None:
                continue
            line_items = [line.ol_i_id for line in order.lines]
            if self.i_id in line_items:
                for other in line_items:
                    if other != self.i_id:
                        co_counts[other] = co_counts.get(other, 0) + 1
        top = sorted(co_counts, key=lambda i: (-co_counts[i], i))[:5]
        while len(top) < 5:
            top.append(self.i_id)
        item.i_related = tuple(top)
        if self.tx_id is not None:
            state.txn_decisions[self.tx_id] = True
        return item.i_id


# ----------------------------------------------------------------------
def _enter_address(action, state, key: Tuple) -> int:
    """Deduplicate addresses exactly like the reference enterAddress.

    ``key`` is the address's dedup key, which is also its columns; the
    row built for an id is kept on ``action`` for the next replica that
    allocates the same id.
    """
    existing = state.address_by_key.get(key)
    if existing is not None:
        return existing
    addr_id = state.next_address_id
    address = action.built_address
    if address is None or address.addr_id != addr_id:
        address = action.built_address = Address(addr_id, *key)
    state.add_address(address, key)
    return addr_id


def _digsyl_uname(number: int) -> str:
    syllables = ["BA", "OG", "AL", "RI", "RE", "SE", "AT", "UL", "IN", "NG"]
    return "".join(syllables[int(d)] for d in str(number))
