"""The nine replicated entity classes of RobustStore's object model.

These mirror TPC-W's conceptual schema (customer, address, country,
author, item, orders, order line, credit-card transaction, shopping cart).
Plain mutable classes with ``__slots__``: they are state, not messages.
Only customers, items and carts are written after they are inserted;
checkpoints pickle those, while a country, author, address, order (with
its lines) or credit-card transaction is never written once
``BookstoreState.add_*`` has run, so every replica restored from one
checkpoint base shares that row object (``BookstoreState.INSERT_ONLY``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


class Country:
    __slots__ = ("co_id", "co_name", "co_exchange", "co_currency")

    def __init__(self, co_id: int, co_name: str, co_exchange: float,
                 co_currency: str):
        self.co_id = co_id
        self.co_name = co_name
        self.co_exchange = co_exchange
        self.co_currency = co_currency


class Address:
    __slots__ = ("addr_id", "addr_street1", "addr_street2", "addr_city",
                 "addr_state", "addr_zip", "addr_co_id")

    def __init__(self, addr_id: int, street1: str, street2: str, city: str,
                 state: str, zip_code: str, co_id: int):
        self.addr_id = addr_id
        self.addr_street1 = street1
        self.addr_street2 = street2
        self.addr_city = city
        self.addr_state = state
        self.addr_zip = zip_code
        self.addr_co_id = co_id

    def key(self) -> Tuple:
        """Identity used for address deduplication (as in the reference
        implementation's enterAddress)."""
        return (self.addr_street1, self.addr_street2, self.addr_city,
                self.addr_state, self.addr_zip, self.addr_co_id)


class Author:
    __slots__ = ("a_id", "a_fname", "a_mname", "a_lname", "a_dob", "a_bio")

    def __init__(self, a_id: int, fname: str, mname: str, lname: str,
                 dob: float, bio: str):
        self.a_id = a_id
        self.a_fname = fname
        self.a_mname = mname
        self.a_lname = lname
        self.a_dob = dob
        self.a_bio = bio


class Customer:
    __slots__ = ("c_id", "c_uname", "c_passwd", "c_fname", "c_lname",
                 "c_addr_id", "c_phone", "c_email", "c_since",
                 "c_last_login", "c_login", "c_expiration", "c_discount",
                 "c_balance", "c_ytd_pmt", "c_birthdate", "c_data")

    def __init__(self, c_id: int, uname: str, passwd: str, fname: str,
                 lname: str, addr_id: int, phone: str, email: str,
                 since: float, last_login: float, login: float,
                 expiration: float, discount: float, balance: float,
                 ytd_pmt: float, birthdate: float, data: str):
        self.c_id = c_id
        self.c_uname = uname
        self.c_passwd = passwd
        self.c_fname = fname
        self.c_lname = lname
        self.c_addr_id = addr_id
        self.c_phone = phone
        self.c_email = email
        self.c_since = since
        self.c_last_login = last_login
        self.c_login = login
        self.c_expiration = expiration
        self.c_discount = discount
        self.c_balance = balance
        self.c_ytd_pmt = ytd_pmt
        self.c_birthdate = birthdate
        self.c_data = data


class Item:
    __slots__ = ("i_id", "i_title", "i_a_id", "i_pub_date", "i_publisher",
                 "i_subject", "i_desc", "i_related", "i_thumbnail",
                 "i_image", "i_srp", "i_cost", "i_avail", "i_stock",
                 "i_isbn", "i_page", "i_backing", "i_dimensions")

    def __init__(self, i_id: int, title: str, a_id: int, pub_date: float,
                 publisher: str, subject: str, desc: str,
                 related: Tuple[int, int, int, int, int], thumbnail: str,
                 image: str, srp: float, cost: float, avail: float,
                 stock: int, isbn: str, page: int, backing: str,
                 dimensions: str):
        self.i_id = i_id
        self.i_title = title
        self.i_a_id = a_id
        self.i_pub_date = pub_date
        self.i_publisher = publisher
        self.i_subject = subject
        self.i_desc = desc
        self.i_related = related
        self.i_thumbnail = thumbnail
        self.i_image = image
        self.i_srp = srp
        self.i_cost = cost
        self.i_avail = avail
        self.i_stock = stock
        self.i_isbn = isbn
        self.i_page = page
        self.i_backing = backing
        self.i_dimensions = dimensions


class OrderLine:
    __slots__ = ("ol_id", "ol_o_id", "ol_i_id", "ol_qty", "ol_discount",
                 "ol_comments")

    def __init__(self, ol_id: int, o_id: int, i_id: int, qty: int,
                 discount: float, comments: str):
        self.ol_id = ol_id
        self.ol_o_id = o_id
        self.ol_i_id = i_id
        self.ol_qty = qty
        self.ol_discount = discount
        self.ol_comments = comments


class Order:
    __slots__ = ("o_id", "o_c_id", "o_date", "o_sub_total", "o_tax",
                 "o_total", "o_ship_type", "o_ship_date", "o_bill_addr_id",
                 "o_ship_addr_id", "o_status", "lines")

    def __init__(self, o_id: int, c_id: int, date: float, sub_total: float,
                 tax: float, total: float, ship_type: str, ship_date: float,
                 bill_addr_id: int, ship_addr_id: int, status: str):
        self.o_id = o_id
        self.o_c_id = c_id
        self.o_date = date
        self.o_sub_total = sub_total
        self.o_tax = tax
        self.o_total = total
        self.o_ship_type = ship_type
        self.o_ship_date = ship_date
        self.o_bill_addr_id = bill_addr_id
        self.o_ship_addr_id = ship_addr_id
        self.o_status = status
        # Filled while the order is built; add_order freezes it to a tuple.
        self.lines: Sequence[OrderLine] = []


class CCXact:
    """Credit-card transaction attached to an order."""

    __slots__ = ("cx_o_id", "cx_type", "cx_num", "cx_name", "cx_expire",
                 "cx_auth_id", "cx_xact_amt", "cx_xact_date", "cx_co_id")

    def __init__(self, o_id: int, cc_type: str, cc_num: str, cc_name: str,
                 cc_expire: float, auth_id: str, amount: float,
                 xact_date: float, co_id: int):
        self.cx_o_id = o_id
        self.cx_type = cc_type
        self.cx_num = cc_num
        self.cx_name = cc_name
        self.cx_expire = cc_expire
        self.cx_auth_id = auth_id
        self.cx_xact_amt = amount
        self.cx_xact_date = xact_date
        self.cx_co_id = co_id


class ShoppingCart:
    """A session cart: item id -> quantity, plus its last-touched time."""

    __slots__ = ("sc_id", "sc_time", "lines")

    def __init__(self, sc_id: int, sc_time: float):
        self.sc_id = sc_id
        self.sc_time = sc_time
        self.lines: Dict[int, int] = {}

    def total_quantity(self) -> int:
        return sum(self.lines.values())

    def subtotal(self, items: Dict[int, Item], discount: float = 0.0) -> float:
        raw = sum(items[i_id].i_cost * qty for i_id, qty in self.lines.items())
        return raw * (1.0 - discount)
